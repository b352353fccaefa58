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
    zms = nhzm.find_zero_modes(modes, spec)
    assert zms, f"no zero mode at gamma={gamma}"
    return spec, zms[0]


@pytest.fixture(scope="session")
def gamma_sweep():
    """Dense sweep of the default chain, its ModeSets and its tracked table."""
    grid = np.round(np.arange(0.0, 3.0 + 0.005, 0.01), 10)
    sweeps = list(nhzm.sweep_gamma(nhzm.coupled_chain, grid))
    return grid, sweeps, nhzm.track_modes(sweeps, grid)


def trajectories(tracked):
    """The trajectories of a ``TrackedSweep``, in the order of their ids.

    Each has its start step, the parameters, eigenvalues and columns of its
    steps, the overlaps of its matches after the first step, and its mode
    number (None for -1), read off the table; each trajectory must hold one
    column a step, over consecutive steps, under one mode number.
    """
    found = []
    for t in range(tracked.track.max() + 1):
        steps, cols = np.nonzero(tracked.track == t)
        assert np.array_equal(steps, steps[0] + np.arange(len(steps)))
        number, = set(tracked.mode_id[steps, cols].tolist())
        found.append(SimpleNamespace(
            start=int(steps[0]), parameters=tracked.parameters[steps],
            eigenvalues=tracked.eigenvalues[steps, cols], column_indices=cols,
            overlaps=tracked.overlaps[steps[1:], cols[1:]],
            mode_number=None if number == -1 else number))
    return found
