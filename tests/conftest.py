"""Shared fixtures: the 19-site chain family, a cached gamma sweep, and
the trajectories of a tracked sweep's table."""

from functools import lru_cache
from types import SimpleNamespace

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
    zms = nhzm.find_zero_modes(modes)
    assert zms, f"no zero mode at gamma={gamma}"
    return spec, zms[0]


@pytest.fixture(scope="session")
def gamma_sweep():
    """Dense sweep of the default chain, each step's ModeSet on the real form
    and the tracked table."""
    from nhzm.spectral import _real_form_modes

    grid = np.round(np.arange(0.0, 3.0 + 0.005, 0.01), 10)
    sweeps = [_real_form_modes(nhzm.coupled_chain(g)) for g in grid]
    return grid, sweeps, nhzm.sweep_gamma(nhzm.coupled_chain, grid)


def trajectories(tracked):
    """The trajectories of a ``TrackedSweep``, in the order of their mode
    numbers.

    Each has its start step, 0, the parameters, eigenvalues and columns of
    every step and its mode number, read off the table; each number must
    sit in one column a step.
    """
    steps, n = tracked.mode_id.shape
    assert (np.sort(tracked.mode_id, axis=1) == np.arange(1, n + 1)).all()
    cols = np.argsort(tracked.mode_id, axis=1)
    return [SimpleNamespace(
        start=0, parameters=tracked.parameters, mode_number=number + 1,
        eigenvalues=tracked.eigenvalues[np.arange(steps), cols[:, number]],
        column_indices=cols[:, number]) for number in range(n)]
