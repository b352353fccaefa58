"""Time evolution under non-Hermitian Hamiltonians and the noise experiment.

States evolve as ``psi(T) = expm(-i*H*T) psi(0)``, which is exact for
linear systems and remains valid for defective matrices.  One period is
2*pi/t in natural units (t = 1).  Long gainy runs overflow floating point,
so evolution can renormalize the state to unit peak amplitude after every
period while accumulating the discarded scale in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EpSetupError, PropagationOverflowError
from .lattice import Hamiltonian, LatticeSpec, assemble_hamiltonian
from .localization import _fit_line
from .spectral import ZeroMode

PERIOD = 2.0 * np.pi


def propagate(h: Hamiltonian, psi0, duration: float,
              renormalize_each_period: bool = False):
    """Evolve a state for the given duration (natural time units).

    Returns the final state, or ``(state, log_scale)`` with per-period
    renormalization, where the true state is ``exp(log_scale) * state``
    up to floating-point range.  A non-finite result without
    renormalization raises PropagationOverflowError.
    """
    from scipy.linalg import expm

    psi = np.asarray(psi0, dtype=complex)
    if not renormalize_each_period:
        with np.errstate(over="ignore", invalid="ignore"):
            out = expm(-1j * h.matrix * duration) @ psi
        if not np.all(np.isfinite(out)):
            raise PropagationOverflowError(
                "evolution overflowed; pass renormalize_each_period=True")
        return out

    n_full = int(duration // PERIOD)
    remainder = duration - n_full * PERIOD
    log_scale = 0.0
    if n_full:
        u = expm(-1j * h.matrix * PERIOD)
        for _ in range(n_full):
            psi = u @ psi
            peak = float(np.abs(psi).max())
            if peak == 0.0 or not math.isfinite(peak):
                raise PropagationOverflowError(
                    "state under/overflowed within a single period")
            psi = psi / peak
            log_scale += math.log(peak)
    if remainder:
        psi = expm(-1j * h.matrix * remainder) @ psi
        peak = float(np.abs(psi).max())
        if peak == 0.0 or not math.isfinite(peak):
            raise PropagationOverflowError(
                "state under/overflowed in the final partial period")
        psi = psi / peak
        log_scale += math.log(peak)
    return psi, log_scale


def _evolve_normalized(h: Hamiltonian, states: np.ndarray, duration: float,
                       normalization: str) -> np.ndarray:
    """Final-state directions for a batch of initial states (columns).

    Uses the eigenbasis with log-domain scaling when the matrix is
    diagonalizable to working precision, falling back to per-period
    renormalized stepping otherwise; both return the same normalized
    states.
    """
    ev, v = np.linalg.eig(h.matrix)
    try:
        recon_err = np.linalg.norm(v @ np.diag(ev) @ np.linalg.inv(v)
                                   - h.matrix, 2)
    except np.linalg.LinAlgError:
        recon_err = np.inf
    if recon_err <= 1e-8 * max(h.norm, 1e-300):
        coeff = np.linalg.solve(v, states)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mag = np.log(np.abs(coeff)) + ev.imag[:, None] * duration
            shift = log_mag.max(axis=0)
            mag = np.exp(log_mag - shift[None, :])
            unit = np.where(np.abs(coeff) > 0, coeff / np.abs(coeff), 0.0)
        scaled = mag * unit * np.exp(-1j * ev.real[:, None] * duration)
        out = v @ scaled
    else:
        out = np.empty_like(states)
        for j in range(states.shape[1]):
            out[:, j], _ = propagate(h, states[:, j], duration,
                                     renormalize_each_period=True)
    if normalization == "max":
        out = out / np.abs(out).max(axis=0, keepdims=True)
    elif normalization == "l2":
        out = out / np.linalg.norm(out, axis=0, keepdims=True)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    return out


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

    Realization i draws its noise from a generator seeded with (seed, i),
    so results are deterministic and independent of batching.  Over many
    periods the mode with the largest gain dominates any fixed noise
    floor; choose ``periods`` with that in mind.
    """
    h = assemble_hamiltonian(spec)
    sites = spec.reservoir_sites()
    reservoir = slice(sites.start, sites.stop)
    base = np.asarray(zero_mode.wavefunction, dtype=complex)
    states = np.tile(base[:, None], (1, n_realizations))
    for i in range(n_realizations):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        states[reservoir, i] *= np.exp(sigma * rng.standard_normal(len(sites)))

    out = _evolve_normalized(h, states, periods * PERIOD, normalization)
    profiles = np.abs(out[reservoir, :])
    mean = profiles.mean(axis=1)
    std = profiles.std(axis=1)

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
