"""Shared fixtures: the 19-site chain family and a cached gamma sweep."""

from functools import lru_cache

import numpy as np
import pytest

import nhzm

# Known zero-mode frequencies of the default 19-site chain (t_A = 1,
# t_B = t' = 0.2, uniform reservoir), used across modules.
KNOWN_ZERO_OMEGAS = {0.5: 0.0251, 2.0: 0.0356, 3.0: 0.0147}


@lru_cache(maxsize=64)
def chain_modes(gamma, t_prime=0.2, reservoir_t_b=1.0, system_gamma=0.0):
    spec = nhzm.coupled_chain(gamma, t_prime=t_prime,
                              reservoir_t_b=reservoir_t_b,
                              system_gamma=system_gamma)
    modes = nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec))
    return spec, modes


def baseline_zero_mode(gamma, **kwargs):
    """The zero mode with Im(omega) closest to zero."""
    spec, modes = chain_modes(gamma, **kwargs)
    zms = nhzm.find_zero_modes(modes, spec)
    assert zms, f"no zero mode at gamma={gamma}"
    return spec, zms[0]


@pytest.fixture(scope="session")
def gamma_sweep():
    """Dense sweep of the default chain with tracked, numbered trajectories."""
    grid = np.round(np.arange(0.0, 3.0 + 0.005, 0.01), 10)
    sweeps = list(nhzm.sweep_gamma(nhzm.coupled_chain, grid))
    trajectories = nhzm.assign_mode_numbers(
        nhzm.track_modes(sweeps, grid), len(grid))
    return grid, sweeps, trajectories
