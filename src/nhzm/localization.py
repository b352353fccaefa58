"""Recurrence-relation analysis of zero-mode tails in the reservoir.

Inside a gain/loss reservoir a zero mode obeys a one-step relation
``psi[n] = i*(kappa/t)*psi[n-1] - psi[n-2]`` with real effective rates
``kappa = Im(omega) -/+ gamma`` on the two sublattices, and consequently a
four-step relation ``psi[n] = alpha*psi[n-2] - psi[n-4]`` with a constant
real alpha.  The roots of ``b^2 - alpha*b + 1 = 0`` control the spatial
profile: unimodular roots (|alpha| < 2) give an extended tail, a real root
pair (|alpha| > 2) gives exponential decay, and the double root at
alpha = +/-2 gives amplitude linear in the site index.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lattice import LatticeSpec
from .spectral import ZeroMode

ALPHA_TOL = 1e-3
# Width of the single-profile window: ||kappa| - 2t| equals |Im(omega)| on
# the critical baseline, which stays finite (~0.04t for the default 19-site
# chain), so a per-mille window would reject every finite lattice.
KAPPA_TOL = 5e-2


class Regime(enum.Enum):
    EXTENDED = "Extended"
    EXPONENTIAL = "ExponentiallyLocalized"
    LINEAR = "LinearlyLocalized"
    ZIGZAG = "ZigzagLinear"
    CONSTANT = "ConstantDelocalized"


@dataclass(frozen=True)
class TailFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class RegimeReport:
    """Classification of a reservoir tail with its supporting fit statistics."""

    regime: Regime
    alpha: float
    r: float
    roots: tuple[complex, complex]
    fits: dict[str, TailFit]
    decay_rate: float | None
    gamma: float
    omega: complex


def compute_kappa(omega: complex, gamma: float, omega0: float = 0.0,
                  tol: float = 1e-8) -> tuple[float, float]:
    """Effective rates (Im(omega) - gamma, Im(omega) + gamma).

    Only defined for zero modes: Re(omega) must sit at omega0 within tol,
    otherwise the rates are not real and a DomainError is raised.  The
    first entry belongs to the gain-modulated sublattice.
    """
    omega = complex(omega)
    if abs(omega.real - omega0) > tol:
        raise DomainError(
            f"kappa is real only for zero modes; |Re(omega) - omega0| = "
            f"{abs(omega.real - omega0):.3e} exceeds tol {tol:.1e}")
    return omega.imag - gamma, omega.imag + gamma


def compute_alpha(kappa_a: float, kappa_b: float, t_a: float,
                  t_b: float) -> tuple[float, float]:
    """Recurrence coefficient alpha and critical quantity r.

    ``r = kappa_a*kappa_b/(t_a*t_b)`` and
    ``alpha = -(t_a/t_b + t_b/t_a + r)``, which reduces to ``-(2 + r)``
    for a uniform reservoir (t_a == t_b).
    """
    if not (t_a > 0 and t_b > 0):
        raise DomainError("reservoir couplings must be positive")
    r = kappa_a * kappa_b / (t_a * t_b)
    alpha = -(t_a / t_b + t_b / t_a + r)
    return alpha, r


def characteristic_roots(alpha: float) -> tuple[complex, complex]:
    """Roots b_+/- = alpha/2 +/- sqrt(alpha^2/4 - 1) of b^2 - alpha*b + 1."""
    disc = cmath.sqrt(alpha * alpha / 4.0 - 1.0)
    return alpha / 2.0 + disc, alpha / 2.0 - disc


def fit_tail(psi, sites, model: str = "linear", per_sublattice: bool = True,
             labels: tuple[str, str] = ("A", "B")):
    """Least-squares fit of the amplitude profile over the given sites.

    The linear model fits |psi[n]| and the exponential model ln|psi[n]|
    against the position index.  With ``per_sublattice`` the two alternating
    subsets are fitted separately against their within-sublattice index and
    returned as a dict keyed by ``labels`` (label of the first site first);
    otherwise a single TailFit over the whole range is returned.
    """
    sites = list(sites)
    amps = np.abs(np.asarray(psi))[sites]
    if model not in ("linear", "exponential"):
        raise ValueError(f"unknown model {model!r}")
    if model == "exponential" and np.any(amps == 0):
        raise DomainError("exponential fit undefined for zero amplitudes")

    def fit_one(y):
        if len(y) < 3:
            raise DomainError("need at least 3 points per fitted series")
        return _fit_line(np.log(y) if model == "exponential" else y)

    if not per_sublattice:
        return fit_one(amps)
    return {labels[0]: fit_one(amps[0::2]), labels[1]: fit_one(amps[1::2])}


def _fit_line(y: np.ndarray) -> TailFit:
    """Least-squares line through (index, y) and its R^2.

    A constant series leaves no variance to explain: R^2 is 1 when the line
    reproduces it and 0 otherwise.
    """
    x = np.arange(len(y), dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(resid @ resid)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return TailFit(float(slope), float(intercept), float(r2))


def classify_regime(zm: ZeroMode, spec: LatticeSpec, *,
                    alpha_tol: float = ALPHA_TOL,
                    kappa_tol: float = KAPPA_TOL) -> RegimeReport:
    """Classify the reservoir tail of a zero mode.

    |alpha| < 2 is extended, |alpha| > 2 exponentially localized with decay
    rate ln|b| per sublattice step.  Within ``alpha_tol`` of +/-2 the tail
    is critical: constant (delocalized) when r = 0, a single linear profile
    when the reservoir coupling is uniform and both |kappa| match 2t within
    ``kappa_tol*t``, and linear per sublattice (zigzag) otherwise.

    Linear-model fits span all reservoir sites; exponential fits drop the
    last site, where the reflected root contaminates the pure decay.  A
    reservoir too short to fit (fewer than 3 sites per sublattice) reports
    an empty fits dict.
    """
    if zm.alpha is None or zm.r is None:
        raise DomainError("zero mode lacks reservoir quantities; pass the "
                          "spec to find_zero_modes")
    alpha, r = zm.alpha, zm.r
    gamma = spec.reservoir_gamma()
    t_a, t_b = spec.reservoir_couplings()
    roots = characteristic_roots(alpha)
    res = spec.reservoir_sites()
    labels = (spec.sublattice(res[0]), spec.sublattice(res[0] + 1))

    def safe_fits(sites, model):
        try:
            return fit_tail(zm.wavefunction, sites, model, True, labels)
        except DomainError:
            return {}

    critical = min(abs(alpha - 2.0), abs(alpha + 2.0)) <= alpha_tol
    decay_rate = None
    if critical:
        uniform = abs(t_a - t_b) <= 1e-12 * max(t_a, t_b)
        t = t_a
        if abs(alpha + 2.0) <= alpha_tol and abs(r) <= alpha_tol:
            regime = Regime.CONSTANT
        elif uniform and abs(abs(zm.kappa_a) - 2 * t) <= kappa_tol * t \
                and abs(abs(zm.kappa_b) - 2 * t) <= kappa_tol * t:
            regime = Regime.LINEAR
        else:
            regime = Regime.ZIGZAG
        fits = safe_fits(res, "linear")
    elif abs(alpha) < 2.0:
        regime = Regime.EXTENDED
        fits = safe_fits(res, "linear")
    else:
        regime = Regime.EXPONENTIAL
        decay_rate = math.log(max(abs(roots[0]), abs(roots[1])))
        fits = safe_fits(res[:-1], "exponential")
    return RegimeReport(regime, alpha, r, roots, fits, decay_rate,
                        gamma, zm.omega)


def verify_recurrence(psi, sites, alpha: float, *, kappas=None,
                      t: float = 1.0) -> float:
    """Max relative residual of the recurrence over consecutive reservoir sites.

    Checks ``psi[n] - alpha*psi[n-2] + psi[n-4]`` for every n with all five
    sites inside ``sites``.  When ``kappas = (kappa_first, kappa_second)``
    gives the effective rates of the sublattices of sites[0] and sites[1]
    (uniform coupling t), the one-step relation
    ``psi[n] = i*(kappa/t)*psi[n-1] - psi[n-2]`` is verified as well.
    Residuals are normalized by max|psi| over the range.
    """
    # a range is converted without a Python int per site
    sites = np.arange(sites.start, sites.stop, sites.step) \
        if isinstance(sites, range) else np.asarray(sites)
    if len(sites) < 5:
        raise DomainError("need at least 5 consecutive reservoir sites")
    if np.any(np.diff(sites) != 1):
        raise DomainError("sites must be consecutive")
    psi = np.asarray(psi)
    seg = psi[sites]
    scale = float(np.abs(seg).max())
    if scale == 0.0:
        return 0.0
    res4 = np.abs(seg[4:] - alpha * seg[2:-2] + seg[:-4]).max() / scale
    worst = float(res4)
    if kappas is not None:
        # kappas[pos % 2] at the middle site pos = 1 .. len - 2
        kappa = np.asarray(kappas)[np.arange(1, len(sites) - 1) % 2]
        r1 = seg[2:] - 1j * (kappa / t) * seg[1:-1] + seg[:-2]
        # hypot is the scalar abs(); numpy's array abs of complex values
        # differs from it in the last bit
        worst = max(worst, float(np.hypot(r1.real, r1.imag).max()) / scale)
    return worst


def verify_eigenmode_recurrence(zm: ZeroMode, spec: LatticeSpec) -> float:
    """Recurrence residual of a computed zero mode over the reservoir interior.

    The junction site and the last reservoir site are excluded from the
    one-step check (their rows carry boundary terms); the four-step check
    runs over every site with four in-range predecessors.
    """
    res = spec.reservoir_sites()
    t_a, t_b = spec.reservoir_couplings()
    if abs(t_a - t_b) <= 1e-12 * max(t_a, t_b):
        kappas = (zm.kappa_a, zm.kappa_b) if spec.onsite[res[0]].imag >= 0 \
            else (zm.kappa_b, zm.kappa_a)
    else:
        kappas = None
    return verify_recurrence(zm.wavefunction, res, zm.alpha,
                             kappas=kappas, t=t_a)


@dataclass(frozen=True)
class StaggerReport:
    staggered: bool
    in_phase_per_sublattice: bool


def check_stagger_phase(psi, partition: int = 0,
                        rel_tol: float = 1e-8) -> StaggerReport:
    """Check the sublattice phase structure of a zero-mode wave function.

    After removing one global phase, ``staggered`` reports whether the
    entries are real on one alternating subset and imaginary on the other
    (in either assignment), within ``rel_tol`` of the peak amplitude.
    ``in_phase_per_sublattice`` additionally requires all entries on each
    subset from ``partition`` onward to share one phase, the stronger
    condition that holds at the critical point alpha = 2.
    """
    psi = np.asarray(psi, dtype=complex)
    scale = float(np.abs(psi).max())
    if scale == 0.0:
        return StaggerReport(True, True)
    ref = int(np.argmax(np.abs(psi)))
    rotated = psi * np.exp(-1j * np.angle(psi[ref]))
    same = rotated[ref % 2::2]
    other = rotated[1 - ref % 2::2]
    staggered = (np.abs(same.imag).max() <= rel_tol * scale
                 and (other.size == 0
                      or np.abs(other.real).max() <= rel_tol * scale))

    in_phase = staggered
    if staggered:
        tail = rotated[partition:]
        for vals in (tail[(partition + ref) % 2::2].real,
                     tail[(partition + ref + 1) % 2::2].imag):
            live = vals[np.abs(vals) > rel_tol * scale]
            if live.size and (live.max() > 0) != (live.min() > 0):
                in_phase = False
    return StaggerReport(bool(staggered), bool(in_phase))


def linear_peak_amplitude(t_prime: float, t: float, n_r: int) -> float:
    """Peak amplitude of the critical linear tail, relative to the system peak.

    Equals ``t_prime / ((2 - (n_r - 1)/n_r) * t)`` for a reservoir of n_r
    sites, approaching t_prime/t for a long reservoir.
    """
    if n_r < 1:
        raise DomainError("n_r must be >= 1")
    return t_prime / ((2.0 - (n_r - 1.0) / n_r) * t)


def hermitian_alpha(omega_mode: float, onsite_reservoir: float,
                    t: float) -> float:
    """Recurrence coefficient (omega - onsite')/t of a Hermitian reservoir.

    The one-step relation there is ``psi[n] = alpha'*psi[n-1] - psi[n-2]``;
    reaching alpha' = +/-2 requires detuning the reservoir onsite to
    omega -/+ 2t, which breaks the chiral symmetry protecting the zero mode.
    """
    return (omega_mode - onsite_reservoir) / t


def ssh_localization_length(t_a: float, t_b: float,
                            lattice_const: float = 1.0) -> float:
    """Edge-mode localization length of an alternating Hermitian chain.

    ``(ln t_a - ln t_b)^(-1) * lattice_const`` for t_a > t_b > 0; equal
    couplings return inf (the mode turns periodic and the length diverges).
    """
    if not (t_b > 0 and t_a > 0):
        raise DomainError("couplings must be positive")
    if t_a < t_b:
        raise DomainError("expects t_a >= t_b > 0")
    if t_a == t_b:
        return math.inf
    return lattice_const / (math.log(t_a) - math.log(t_b))


def fit_two_root_expansion(values, roots) -> tuple[complex, complex]:
    """Coefficients (beta1, beta2) of psi_m = beta1*b+^m + beta2*b-^m."""
    vals = np.asarray(values, dtype=complex)
    m = np.arange(len(vals))
    basis = np.column_stack([np.asarray(roots[0]) ** m, np.asarray(roots[1]) ** m])
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    return complex(coef[0]), complex(coef[1])

