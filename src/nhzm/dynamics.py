"""Time evolution under non-Hermitian Hamiltonians and the noise experiment.

States evolve as ``psi(T) = expm(-i*H*T) psi(0)``, which is exact for
linear systems and remains valid for defective matrices.  One period is
2*pi/t in natural units (t = 1).  Long gainy runs overflow floating point,
so evolution can renormalize the state to unit peak amplitude after every
period while accumulating the discarded scale in log space.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EpSetupError, PropagationOverflowError
from .lattice import Hamiltonian, LatticeSpec, assemble_hamiltonian
from .localization import _fit_line
from .spectral import ZeroMode

PERIOD = 2.0 * np.pi

# The uint32 hash of numpy's SeedSequence (pool of 4 words, as in
# numpy/random/bit_generator.pyx) and the 128-bit LCG multiplier of PCG64,
# which ``_seeded_normals`` replays for many seeds at once.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Bytes that ``ensemble_experiment`` spends on one block of realizations, and
# per realization and site of a block: its initial states, the solve's copy
# of them, the coefficients and their magnitudes, the evolved states and the
# moduli that normalize them (16 + 16 + 16 + 8 + 16 + 8 B).  32 MiB hold
# 2048 realizations at N = 109.
ENSEMBLE_BYTES = 32 * 2 ** 20
_COLUMN_BYTES = 80


def propagate(h: Hamiltonian, psi0, duration: float,
              renormalize_each_period: bool = False):
    """Evolve a state for the given duration (natural time units).

    Returns the final state, or ``(state, log_scale)`` with per-period
    renormalization, where the true state is ``exp(log_scale) * state``
    up to floating-point range.  A non-finite result without
    renormalization raises PropagationOverflowError.
    """
    psi = np.asarray(psi0, dtype=complex)
    if not renormalize_each_period:
        from scipy.linalg import expm

        with np.errstate(over="ignore", invalid="ignore"):
            out = expm(-1j * h.matrix * duration) @ psi
        if not np.all(np.isfinite(out)):
            raise PropagationOverflowError(
                "evolution overflowed; pass renormalize_each_period=True")
        return out
    return _step_renormalized(psi, *_period_steps(h, duration))


def _period_steps(h: Hamiltonian, duration: float):
    """``(n_full, u, u_rest)``: the whole periods in the duration, the
    propagator of one period and that of the remainder (None if unused)."""
    from scipy.linalg import expm

    n_full = int(duration // PERIOD)
    remainder = duration - n_full * PERIOD
    u = expm(-1j * h.matrix * PERIOD) if n_full else None
    u_rest = expm(-1j * h.matrix * remainder) if remainder else None
    return n_full, u, u_rest


def _step_renormalized(psi: np.ndarray, n_full: int, u, u_rest):
    """``propagate``'s per-period stepping with ``_period_steps``' output."""
    log_scale = 0.0
    rest = [] if u_rest is None else [u_rest]
    for step in itertools.chain(itertools.repeat(u, n_full), rest):
        psi = step @ psi
        peak = float(np.abs(psi).max())
        if peak == 0.0 or not math.isfinite(peak):
            raise PropagationOverflowError(
                "state under/overflowed within a single period")
        psi = psi / peak
        log_scale += math.log(peak)
    return psi, log_scale


def _evolver(h: Hamiltonian, duration: float, normalization: str):
    """Final-state directions under h, as a function of a batch of initial
    states (columns).

    Uses the eigenbasis with log-domain scaling when the matrix is
    diagonalizable to working precision, falling back to per-period
    renormalized stepping otherwise; both return the same normalized
    states.  The eigendecomposition and its reconstruction check, or the
    fallback's two propagators, are computed here once, and batches of any
    width share them.
    """
    if normalization not in ("max", "l2"):
        raise ValueError(f"unknown normalization {normalization!r}")
    ev, v = np.linalg.eig(h.matrix)
    try:
        recon_err = np.linalg.norm((v * ev) @ np.linalg.inv(v) - h.matrix, 2)
    except np.linalg.LinAlgError:
        recon_err = np.inf
    if recon_err <= 1e-8 * max(h.norm, 1e-300):
        growth = ev.imag[:, None] * duration
        phase = np.exp(-1j * ev.real[:, None] * duration)

        def evolve(states):
            # coeff becomes the scaled coefficients in place: its unit phase
            # (0 where |coeff| is not > 0), times the magnitude shifted in
            # log space so that each column's largest is 1, times the phase
            # factor
            coeff = np.linalg.solve(v, states)
            mag = np.abs(coeff)
            vanishing = ~(mag > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(coeff, mag, out=coeff)
                coeff[vanishing] = 0.0
                np.log(mag, out=mag)
                mag += growth
                mag -= mag.max(axis=0)
                np.exp(mag, out=mag)
            np.multiply(mag, coeff, out=coeff)
            del mag, vanishing
            coeff *= phase
            return v @ coeff
    else:
        steps = _period_steps(h, duration)

        def evolve(states):
            out = np.empty_like(states)
            for j in range(states.shape[1]):
                out[:, j], _ = _step_renormalized(states[:, j], *steps)
            return out

    def evolve_normalized(states):
        out = evolve(states)
        if normalization == "max":
            out /= np.abs(out).max(axis=0, keepdims=True)
        else:
            out /= np.linalg.norm(out, axis=0, keepdims=True)
        return out

    return evolve_normalized


def _hash_constants(value: int, mult: int):
    """SeedSequence's running hash constant: (before, after) each update."""
    while True:
        nxt = value * mult & _MASK32
        yield np.uint32(value), np.uint32(nxt)
        value = nxt


def _hashmix(words: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _noise_seed(seed: int, stop: int) -> int:
    """The seed as an int, once noise rows up to ``stop`` are drawable.

    Raises ValueError for a negative seed, as numpy does, and DomainError
    from 2^32 rows on, so that every row index fits the one uint32 word it
    takes in the seed; both before anything is allocated.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if stop >= 1 << 32:
        raise DomainError(
            f"{stop} realizations: the realization index must fit "
            f"one uint32 word of the noise seed")
    return seed


def _seeded_normals(seed: int, n_realizations: int, n: int,
                    start: int = 0) -> np.ndarray:
    """Noise rows from ``start`` on: row k is numpy's
    ``default_rng(SeedSequence((seed, start + k))).standard_normal(n)``.

    Equal bit for bit, without one SeedSequence and one generator per row
    (~37 us each).  Each row depends only on ``(seed, start + k)``, so the
    rows of an ensemble can be drawn in blocks of any width: the block from
    ``start`` holds ``n_realizations`` rows.  SeedSequence splits each
    non-negative integer of its entropy into little-endian uint32 words (the
    seed's, then the row index's one word) and hashes them into a pool of
    four words; that hash runs here on uint32 arrays over all rows at once.
    The pool's first 256 output bits seed PCG64 as its ``set_seed`` does
    (initial state, then stream, each 128 bits), and one generator draws
    every row after its state is set.
    """
    seed = _noise_seed(seed, start + n_realizations)
    n_words = max(1, -(-seed.bit_length() // 32))
    seed_words = np.frombuffer(seed.to_bytes(4 * n_words, "little"), "<u4")
    entropy = [np.full(n_realizations, w, dtype=np.uint32) for w in seed_words]
    entropy.append(np.arange(n_realizations, dtype=np.uint32)
                   + np.uint32(start))

    hash_a = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[k] if k < len(entropy)
                     else np.zeros(n_realizations, dtype=np.uint32), hash_a)
            for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a))
    for words in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(words, hash_a))

    # generate_state(4, uint64): eight hashed uint32 words cycling through
    # the pool, read in little-endian pairs
    hash_b = _hash_constants(_INIT_B, _MULT_B)
    halves = [_hashmix(pool[k % _POOL_SIZE], hash_b).astype(np.uint64)
              for k in range(2 * _POOL_SIZE)]
    seed_state = [(halves[2 * k] | halves[2 * k + 1] << np.uint64(32)).tolist()
                  for k in range(_POOL_SIZE)]

    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    out = np.empty((n_realizations, n))
    for row, s0, s1, s2, s3 in zip(out, *seed_state):
        # pcg_setseq_128_srandom_r: inc = 2 stream + 1; state = 0, step,
        # add the initial state, step
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": (((s0 << 64 | s1) + inc) * _PCG_MULT
                                            + inc) & _MASK128,
                                  "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=row)
    return out


def _block_width(n: int) -> int:
    """Realizations per ensemble block at N sites: a power of two.

    As many as ``ENSEMBLE_BYTES`` hold at ``_COLUMN_BYTES`` per realization
    and site, or 2N if that is more, rounded down.  A block of more
    realizations than sites keeps the LU factorization that
    ``np.linalg.solve`` repeats per block ((8/3) N^3 flops) small against
    the block's solve and product back (16 N^2 flops per realization).
    """
    columns = max(ENSEMBLE_BYTES // (_COLUMN_BYTES * n), 2 * n)
    return 1 << (columns.bit_length() - 1)


def _mean_std(rows: np.ndarray):
    """``rows.mean(axis=1)`` and ``rows.std(axis=1)``, bit for bit.

    Does numpy's arithmetic for ``std`` (deviations from the mean, squared,
    summed, divided by the count) in place in ``rows``, which it overwrites,
    rather than in a temporary array of the same size.
    """
    mean = rows.mean(axis=1)
    rows -= mean[:, None]
    np.multiply(rows, rows, out=rows)
    return mean, np.sqrt(np.add.reduce(rows, axis=1) / rows.shape[1])


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Ensemble-averaged reservoir profile of a noise-seeded zero mode.

    ``r_squared`` of the linear fit is clipped into [0, 1]; a mean profile
    fitted worse than its own average reports 0.
    """

    mean_abs_profile: np.ndarray
    std_profile: np.ndarray
    r_squared: float
    n_realizations: int
    duration: float
    seed: int
    sigma: float


def ensemble_experiment(spec: LatticeSpec, zero_mode: ZeroMode,
                        sigma: float = 0.1, n_realizations: int = 1000,
                        periods: float = 1e4, seed: int = 0,
                        normalization: str = "max") -> EnsembleResult:
    """Noise-robustness experiment on a zero mode's reservoir tail.

    Each realization multiplies the zero-mode amplitude at every reservoir
    site by an independent factor ``exp(sigma * s)`` with standard-normal
    s, evolves the state for the given number of periods, and normalizes
    the result.  Reported are the per-site mean and standard deviation of
    |psi| over the reservoir and the R^2 of a linear fit of the mean
    profile against the site index.

    Realization i draws its noise s from
    ``np.random.default_rng(np.random.SeedSequence((seed, i)))``, bit for
    bit, so results are deterministic and the noise does not depend on
    batching; the draws of a block of realizations come from one generator
    (``_seeded_normals``).  A negative seed raises ValueError, as numpy does.
    Over many periods the mode with the largest gain dominates any fixed
    noise floor; choose ``periods`` with that in mind.

    H is diagonalized once.  The realizations are then drawn, evolved and
    reduced to their reservoir moduli in blocks of a power-of-two width set
    by ``ENSEMBLE_BYTES`` (2048 at N = 109, never fewer than N), so memory is
    O(N^2 + N * block + n_res * R): the last term is the (n_res, R) array of
    moduli that the mean and std are taken over, as a bit-exact mean needs.
    The block width does not change the noise or the arithmetic per
    realization, but BLAS may round one realization's solve and product
    differently at another width (seen: up to 3.3e-16 relative in mean and
    std).
    """
    _noise_seed(seed, n_realizations)
    h = assemble_hamiltonian(spec)
    sites = spec.reservoir_sites()
    reservoir = slice(sites.start, sites.stop)
    evolve = _evolver(h, periods * PERIOD, normalization)
    base = np.asarray(zero_mode.wavefunction, dtype=complex)
    profiles = np.empty((len(sites), n_realizations))
    width = _block_width(h.dim)
    for lo in range(0, n_realizations, width):
        hi = min(lo + width, n_realizations)
        noise = _seeded_normals(seed, hi - lo, len(sites), start=lo)
        noise *= sigma
        states = np.tile(base[:, None], (1, hi - lo))
        states[reservoir, :] *= np.exp(noise, out=noise).T
        del noise
        np.abs(evolve(states)[reservoir, :], out=profiles[:, lo:hi])
    mean, std = _mean_std(profiles)

    r2 = _fit_line(mean).r_squared
    return EnsembleResult(mean, std, float(np.clip(r2, 0.0, 1.0)),
                          n_realizations, periods, seed, sigma)


def amplification_limited_periods(eigenvalues, zero_omega: complex,
                                  max_ratio: float) -> float:
    """Longest run (in periods) keeping the top mode's gain advantage bounded.

    Solves ``exp((max Im - Im(zero)) * T) = max_ratio``; returns inf when
    the zero mode already has the largest gain.
    """
    delta = float(np.max(np.asarray(eigenvalues).imag) - zero_omega.imag)
    if delta <= 0:
        return math.inf
    return math.log(max_ratio) / delta / PERIOD


@dataclass(frozen=True, eq=False)
class EpEvolution:
    """Second-order exceptional point data: eigenvalue and Jordan chain.

    ``psi1`` is normalized so that ``(H - eigenvalue) psi1 = psi0`` exactly;
    the conjugate overlap <psi0|psi1> is kept as a diagnostic of the
    alternative left-vector normalization convention.
    """

    eigenvalue: complex
    psi0: np.ndarray
    psi1: np.ndarray

    @classmethod
    def from_hamiltonian(cls, h: Hamiltonian) -> "EpEvolution":
        """Extract the coalesced eigenvector and its Jordan partner.

        Takes the closest eigenvalue pair as the degenerate eigenvalue,
        the minimal singular direction as psi0, and the least-squares
        solution of the chain relation as psi1.
        """
        vals = np.linalg.eigvals(h.matrix)
        n = len(vals)
        if n < 2:
            raise EpSetupError("need a matrix of dimension >= 2")
        diff = np.abs(vals[:, None] - vals[None, :]) + np.diag(np.full(n, np.inf))
        i, j = np.unravel_index(np.argmin(diff), diff.shape)
        lam = (vals[i] + vals[j]) / 2.0
        shifted = h.matrix - lam * np.eye(n)
        _, _, vh = np.linalg.svd(shifted)
        psi0 = vh[-1].conj()
        psi1, *_ = np.linalg.lstsq(shifted, psi0, rcond=None)
        ep = cls(complex(lam), psi0, psi1)
        ep.validate(h)
        return ep

    def validate(self, h: Hamiltonian, tol: float = 1e-10) -> None:
        shifted = h.matrix - self.eigenvalue * np.eye(h.dim)
        scale = max(h.norm, 1.0)
        if np.linalg.norm(shifted @ self.psi1 - self.psi0) > tol * scale:
            raise EpSetupError("(H - lambda) psi1 != psi0 within tolerance")
        if np.linalg.norm(shifted @ shifted @ self.psi1) > tol * scale:
            raise EpSetupError("(H - lambda)^2 psi1 != 0 within tolerance")

    @property
    def conjugate_overlap(self) -> complex:
        return complex(np.vdot(self.psi0, self.psi1))


def ep_expansion(ep: EpEvolution, psi_init,
                 tol: float = 1e-8) -> tuple[complex, complex]:
    """Coefficients (c0, c1) of psi_init = c0*psi0 + c1*psi1.

    The initial state must lie in the span of the Jordan chain for the
    closed-form evolution to apply.
    """
    basis = np.column_stack([ep.psi0, ep.psi1])
    psi = np.asarray(psi_init, dtype=complex)
    coef, *_ = np.linalg.lstsq(basis, psi, rcond=None)
    if np.linalg.norm(basis @ coef - psi) > tol * np.linalg.norm(psi):
        raise EpSetupError(
            "initial state has components outside the degenerate subspace")
    return complex(coef[0]), complex(coef[1])


def ep_evolution(h: Hamiltonian, ep: EpEvolution, psi_init,
                 t: float) -> np.ndarray:
    """Closed-form state at an exceptional point of order two.

    ``psi(t) = c0 e^{-i lam t} psi0 + c1 e^{-i lam t} (psi1 - i t psi0)``,
    with the coefficients from expanding the initial state in the Jordan
    chain.  The psi0 amplitude seeded by psi1 grows linearly in time.
    """
    ep.validate(h)
    c0, c1 = ep_expansion(ep, psi_init)
    phase = np.exp(-1j * ep.eigenvalue * t)
    return c0 * phase * ep.psi0 + c1 * phase * (ep.psi1 - 1j * t * ep.psi0)


def critical_damping(x0: float, v0: float, omega0: float, t):
    """Displacement of a critically damped oscillator, x(0)=x0, x'(0)=v0.

    ``x(t) = e^{-omega0 t} (x0 + (omega0*x0 + v0) t)``; the linear term is
    suppressed by the exponential except in the free limit omega0 -> 0,
    where the motion degenerates to uniform velocity.
    """
    if omega0 < 0:
        raise ValueError("omega0 must be >= 0")
    t = np.asarray(t, dtype=float)
    beta = omega0 * x0 + v0
    return np.exp(-omega0 * t) * (x0 + beta * t)
