"""Correctness oracle for ``nhzm run`` outputs that does not import nhzm.

Every check rebuilds what it needs from the scenario parameters with numpy
(and scipy.linalg.expm for the ensemble): the tridiagonal chain matrix, its
eigenvalues, the recurrence quantities alpha and r, the regime label, the
Bloch bands and the noise ensemble.  Outputs of bundled scenarios are also
compared with the reference values stored next to this file.

``check_item`` returns the list of problems found; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ZERO_TOL = 1e-8       # |Re omega| of a zero mode, the tolerance nhzm reports with
STRICT_ZERO = 1e-9    # oracle eigenvalues certainly on the imaginary axis
LOOSE_ZERO = 1e-7     # oracle eigenvalues possibly on the imaginary axis
EIG_TOL = 1e-8        # eigenvalue agreement, relative to ||H||_inf
RESID_TOL = 1e-10     # ||H psi - omega psi|| / (||H||_inf ||psi||)
REL_TOL = 1e-9        # closed forms recomputed from reported values
ROOT_TOL = 1e-6       # characteristic roots, which move like sqrt(delta alpha)
                      # near the double root at alpha = +/-2
REF_TOL = 1e-7        # stored reference values of bundled scenarios
ENSEMBLE_TOL = 1e-9   # ensemble profiles recomputed realization by realization
ENSEMBLE_SIGMAS = 6.0  # statistical agreement of two ensembles, in standard errors
# Regime windows of the paper's classification rule (alpha near +/-2 is
# critical; a single linear tail needs |kappa| within 5% of 2t).
ALPHA_WINDOW = 1e-3
KAPPA_WINDOW = 5e-2
# CSV columns that depend on LAPACK's arbitrary eigenvector phase; they are
# checked through the eigen-residual instead of against stored references.
PHASE_COLUMNS = ("re_exact", "im_exact")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def resolve(raw: dict, seed: int | None) -> dict:
    """Scenario parameters with the documented defaults filled in."""
    d = json.loads(json.dumps(raw))
    d.setdefault("onsite", 0.0)
    d.setdefault("seed", 0)
    if seed is not None:
        d["seed"] = int(seed)
    if "system" in d:
        d["system"].setdefault("gamma", 0.0)
    if "reservoir" in d:
        d["reservoir"].setdefault("onsite", d["onsite"])
    if d["task"] == "ensemble":
        blk = d.setdefault("ensemble", {})
        blk.setdefault("sigma", 0.1)
        blk.setdefault("n_realizations", 1000)
        blk.setdefault("periods", 1e4)
    if d["task"] == "bands":
        blk = d.setdefault("bands", {})
        blk.setdefault("gammas", [d["reservoir"]["gamma"]])
        blk.setdefault("k_points", 1001)
    return d


def chain_matrix(d: dict, gamma: float | None = None) -> np.ndarray:
    """System chain (labels start on B) + gain-first reservoir, joined by t'."""
    s, r = d["system"], d["reservoir"]
    ns, nr = s["n"], r["n"]
    g = r["gamma"] if gamma is None else gamma
    diag = np.concatenate([
        d["onsite"] + 1j * s["gamma"] * (-1.0) ** (ns - 1 - np.arange(ns)),
        r["onsite"] + 1j * g * (-1.0) ** np.arange(nr)])
    off = np.concatenate([
        np.where(np.arange(ns - 1) % 2 == 0, s["tA"], s["tB"]),
        [d["coupling"]],
        np.where(np.arange(nr - 1) % 2 == 0, r["tA"], r["tB"])])
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of chain matrices.

    With purely imaginary onsite energies, -iH is diagonally similar to the
    real tridiagonal matrix with diagonal Im(H_kk), upper couplings t_k and
    lower couplings -t_k (the products of opposite couplings agree), so the
    spectrum is i times a real spectrum.  That path is an exact similarity,
    independent of the complex solver nhzm uses, and about ten times
    faster; other chains go through the complex solver.
    """
    diag = np.diagonal(stack, axis1=1, axis2=2)
    if np.any(diag.real != 0):
        return np.linalg.eigvals(stack)
    off = np.diagonal(stack, 1, axis1=1, axis2=2).real
    n = stack.shape[1]
    real = np.zeros(stack.shape)
    idx = np.arange(n)
    real[:, idx, idx] = diag.imag
    real[:, idx[:-1], idx[1:]] = off
    real[:, idx[1:], idx[:-1]] = -off
    return 1j * np.linalg.eigvals(real)


def sublattice_labels(d: dict) -> list[str]:
    n = d["system"]["n"] + d["reservoir"]["n"]
    return ["B" if i % 2 == 0 else "A" for i in range(n)]


def alpha_r(omega: complex, d: dict) -> tuple[float, float, float, float]:
    """(alpha, r, kappa_a, kappa_b) of a zero mode from the recurrence."""
    res = d["reservoir"]
    kappa_a, kappa_b = omega.imag - res["gamma"], omega.imag + res["gamma"]
    r = kappa_a * kappa_b / (res["tA"] * res["tB"])
    return -(res["tA"] / res["tB"] + res["tB"] / res["tA"] + r), r, kappa_a, kappa_b


def regime(alpha: float, r: float, kappa_a: float, kappa_b: float,
           t_a: float, t_b: float) -> str:
    if min(abs(alpha - 2.0), abs(alpha + 2.0)) <= ALPHA_WINDOW:
        uniform = abs(t_a - t_b) <= 1e-12 * max(t_a, t_b)
        if abs(alpha + 2.0) <= ALPHA_WINDOW and abs(r) <= ALPHA_WINDOW:
            return "ConstantDelocalized"
        if uniform and abs(abs(kappa_a) - 2 * t_a) <= KAPPA_WINDOW * t_a \
                and abs(abs(kappa_b) - 2 * t_a) <= KAPPA_WINDOW * t_a:
            return "LinearlyLocalized"
        return "ZigzagLinear"
    return "Extended" if abs(alpha) < 2.0 else "ExponentiallyLocalized"


def _close(a, b, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _complex(obj) -> complex:
    return complex(obj["re"], obj["im"])


def read_csv(path: Path) -> tuple[dict, dict[str, list[str]]]:
    """(embedded scenario, columns as lists of strings) of an nhzm CSV file."""
    lines = path.read_text().splitlines()
    if len(lines) < 3 or not lines[0].startswith("# nhzm ") \
            or not lines[1].startswith("# scenario: "):
        raise ValueError(f"{path.name}: missing nhzm header")
    header = lines[2].split(",")
    cells = [line.split(",") for line in lines[3:]]
    if any(len(row) != len(header) for row in cells):
        raise ValueError(f"{path.name}: ragged rows")
    columns = {name: [row[i] for row in cells] for i, name in enumerate(header)}
    return json.loads(lines[1][len("# scenario: "):]), columns


def floats(column: list[str]) -> np.ndarray:
    return np.array(column, dtype=float)


def _unmatched(reported: np.ndarray, exact: np.ndarray, tol: float) -> int:
    """Eigenvalues of either set with no partner in the other within tol."""
    dist = np.abs(reported[:, None] - exact[None, :])
    return int(np.sum(dist.min(axis=1) > tol) + np.sum(dist.min(axis=0) > tol))


class Checker:
    """Collects the problems of one item's outputs."""

    def __init__(self, d: dict, out: Path):
        self.d = d
        self.out = Path(out)
        self.problems: list[str] = []
        self._eig: tuple = ()

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def expect(self, ok: bool, msg: str) -> None:
        if not ok:
            self.fail(msg)

    def load_json(self, name: str) -> dict:
        payload = json.loads((self.out / name).read_text())
        self.check_meta(payload.get("meta", {}).get("scenario"), name)
        return payload

    def load_csv(self, name: str) -> dict[str, list[str]]:
        scenario, columns = read_csv(self.out / name)
        self.check_meta(scenario, name)
        return columns

    def check_meta(self, scenario, name: str) -> None:
        if not isinstance(scenario, dict):
            self.fail(f"{name}: no embedded scenario")
            return
        for key in ("task", "seed"):
            self.expect(scenario.get(key) == self.d[key],
                        f"{name}: embedded {key} {scenario.get(key)!r} != "
                        f"{self.d[key]!r}")

    def eigvals(self):
        """(H, its eigenvalues, ||H||_inf) of the scenario's chain."""
        if not self._eig:
            h = chain_matrix(self.d)
            self._eig = (h, eigenvalues(h[None])[0],
                         float(np.abs(h).sum(axis=1).max()))
        return self._eig

    # -- zero modes ---------------------------------------------------------

    def zero_mode(self, omega: complex, label: str, *, baseline: bool) -> None:
        """omega is an eigenvalue on the imaginary axis (the baseline one)."""
        _, ev, hn = self.eigvals()
        tol = EIG_TOL * hn
        self.expect(np.abs(ev - omega).min() <= tol,
                    f"{label}: omega {omega} is not an eigenvalue")
        self.expect(abs(omega.real) <= ZERO_TOL,
                    f"{label}: |Re omega| = {abs(omega.real):.2e} > {ZERO_TOL}")
        if baseline:
            strict = ev[np.abs(ev.real) <= STRICT_ZERO]
            self.expect(not np.any(np.abs(strict.imag) < abs(omega.imag) - tol),
                        f"{label}: a zero mode with smaller |Im omega| exists")

    def recurrence(self, report: dict, label: str) -> None:
        """alpha, r, roots, gamma and regime recomputed from omega."""
        omega = _complex(report["omega"])
        res = self.d["reservoir"]
        alpha, r, ka, kb = alpha_r(omega, self.d)
        self.expect(_close(report["alpha"], alpha, REL_TOL),
                    f"{label}: alpha {report['alpha']} != {alpha}")
        self.expect(_close(report["r"], r, REL_TOL),
                    f"{label}: r {report['r']} != {r}")
        want = regime(alpha, r, ka, kb, res["tA"], res["tB"])
        self.expect(report["regime"] == want,
                    f"{label}: regime {report['regime']} != {want}")
        if "gamma" in report:
            self.expect(_close(report["gamma"], res["gamma"], REL_TOL),
                        f"{label}: gamma {report['gamma']} != {res['gamma']}")
        if "roots" in report:
            disc = cmath.sqrt(alpha * alpha / 4.0 - 1.0)
            roots = (alpha / 2.0 + disc, alpha / 2.0 - disc)
            got = [_complex(b) for b in report["roots"]]
            self.expect(len(got) == 2 and all(
                _close(g, w, ROOT_TOL) for g, w in zip(got, roots)),
                f"{label}: wrong roots")
            if want == "ExponentiallyLocalized":
                rate = math.log(max(abs(roots[0]), abs(roots[1])))
                self.expect(report["decay_rate"] is not None and _close(
                    report["decay_rate"], rate, ROOT_TOL),
                    f"{label}: decay rate {report['decay_rate']} != {rate}")

    # -- tasks --------------------------------------------------------------

    def mode_profile(self) -> None:
        reg = self.load_json("regime.json")
        cols = self.load_csv("profile.csv")
        h, _, hn = self.eigvals()
        omega = _complex(reg["omega"])
        self.zero_mode(omega, "regime.json", baseline=True)
        self.recurrence(reg, "regime.json")
        n = len(h)
        self.expect(cols["site"] == [str(i) for i in range(n)],
                    "profile.csv: wrong site column")
        self.expect(cols["sublattice"] == sublattice_labels(self.d),
                    "profile.csv: wrong sublattice labels")
        psi = floats(cols["re_exact"]) + 1j * floats(cols["im_exact"])
        resid = np.linalg.norm(h @ psi - omega * psi) / (hn * np.linalg.norm(psi))
        self.expect(resid <= RESID_TOL,
                    f"profile.csv: eigen-residual {resid:.2e} > {RESID_TOL}")
        self.expect(np.allclose(floats(cols["abs_exact"]), np.abs(psi),
                                rtol=1e-12, atol=1e-15),
                    "profile.csv: abs_exact != |psi|")
        self.expect(abs(np.abs(psi).max() - 1.0) <= 1e-12,
                    "profile.csv: profile not scaled to unit peak")
        pert = floats(cols["abs_pert"])
        self.expect(bool(np.all(np.isfinite(pert)) and np.all(pert >= 0)),
                    "profile.csv: invalid abs_pert")
        ns, res = self.d["system"]["n"], self.d["reservoir"]
        peak = float(np.abs(psi[ns:]).max())
        self.expect(_close(reg["peak_reservoir_amplitude"], peak, REL_TOL),
                    "regime.json: peak_reservoir_amplitude != profile peak")
        linear = self.d["coupling"] / ((2.0 - (res["n"] - 1.0) / res["n"])
                                       * res["tA"])
        self.expect(_close(reg["predicted_linear_peak"], linear, REL_TOL),
                    "regime.json: predicted_linear_peak is wrong")

    def spectrum(self) -> None:
        cols = self.load_csv("spectrum.csv")
        zms = self.load_json("zero_modes.json")["zero_modes"]
        _, ev, hn = self.eigvals()
        tol = EIG_TOL * hn
        w = floats(cols["re_omega"]) + 1j * floats(cols["im_omega"])
        self.expect(cols["mode_index"] == [str(i) for i in range(len(ev))],
                    "spectrum.csv: wrong mode_index column")
        if len(w) == len(ev):
            bad = _unmatched(w, ev, tol)
            self.expect(bad == 0, f"spectrum.csv: {bad} eigenvalues unmatched")
        self.expect(bool(np.all(np.diff(w.real) >= -tol)),
                    "spectrum.csv: not sorted by Re omega")
        n_strict = int(np.sum(np.abs(ev.real) <= STRICT_ZERO))
        n_loose = int(np.sum(np.abs(ev.real) <= LOOSE_ZERO))
        self.expect(n_strict <= len(zms) <= n_loose,
                    f"zero_modes.json: {len(zms)} zero modes, expected "
                    f"{n_strict}..{n_loose}")
        last = 0.0
        for k, zm in enumerate(zms):
            omega = _complex(zm["omega"])
            label = f"zero_modes.json[{k}]"
            self.zero_mode(omega, label, baseline=(k == 0))
            self.recurrence(zm, label)
            idx = zm["mode_index"]
            self.expect(0 <= idx < len(w) and w[idx] == omega,
                        f"{label}: mode_index {idx} does not hold omega")
            self.expect(abs(omega.imag) >= last,
                        f"{label}: not sorted by |Im omega|")
            last = abs(omega.imag)

    def sweep(self) -> int:
        """Checks the sweep; returns its number of rows with mode_id -1."""
        cols = self.load_csv("sweep.csv")
        summary = self.load_json("sweep_summary.json")
        blk, res = self.d["sweep"], self.d["reservoir"]
        grid = np.arange(blk["gamma_start"],
                         blk["gamma_stop"] + 0.5 * blk["gamma_step"],
                         blk["gamma_step"])
        n = self.d["system"]["n"] + res["n"]
        g = floats(cols["gamma"])
        ids = np.array(cols["mode_id"], dtype=int)
        w = floats(cols["re_omega"]) + 1j * floats(cols["im_omega"])
        if len(g) != len(grid) * n:
            self.fail(f"sweep.csv: {len(g)} rows, expected {len(grid) * n}")
            return 0
        g, ids, w = g.reshape(len(grid), n), ids.reshape(len(grid), n), \
            w.reshape(len(grid), n)
        self.expect(np.allclose(g, grid[:, None], rtol=0, atol=1e-12),
                    "sweep.csv: rows are not grouped by the gamma grid")
        stack = np.stack([chain_matrix(self.d, x) for x in grid])
        ev = eigenvalues(stack)
        hn = float(np.abs(stack).sum(axis=2).max())
        tol = EIG_TOL * hn
        bad = sum(_unmatched(w[i], ev[i], tol) for i in range(len(grid)))
        self.expect(bad == 0, f"sweep.csv: {bad} eigenvalues unmatched")
        r = (w.imag ** 2 - g ** 2) / (res["tA"] * res["tB"])
        self.expect(np.allclose(floats(cols["r"]).reshape(r.shape), r,
                                rtol=REL_TOL, atol=REL_TOL),
                    "sweep.csv: r column is wrong")
        numbered = ids[ids != -1]
        self.expect(bool(np.all((numbered >= 1) & (numbered <= n))),
                    "sweep.csv: mode_id out of range")
        self.expect(all(len(set(row[row != -1])) == np.sum(row != -1)
                        for row in ids), "sweep.csv: duplicate mode_id")

        step_of = {round(x, 9): i for i, x in enumerate(grid)}
        for b in summary["baseline"]:
            i = step_of.get(round(b["gamma"], 9))
            if i is None:
                self.fail(f"sweep_summary.json: baseline gamma {b['gamma']} "
                          "not on the grid")
                continue
            on_axis = ev[i][np.abs(ev[i].real) <= LOOSE_ZERO]
            self.expect(on_axis.size > 0 and np.abs(
                on_axis.imag - b["im_omega"]).min() <= tol,
                f"sweep_summary.json: baseline at gamma {b['gamma']} is not "
                "a zero mode")
            strict = ev[i][np.abs(ev[i].real) <= STRICT_ZERO]
            self.expect(not np.any(np.abs(strict.imag)
                                   < abs(b["im_omega"]) - tol),
                        f"sweep_summary.json: baseline at gamma {b['gamma']} "
                        "is not the smallest |Im omega|")
            want_r = (b["im_omega"] ** 2 - b["gamma"] ** 2) / (res["tA"] * res["tB"])
            self.expect(_close(b["r"], want_r, REL_TOL),
                        "sweep_summary.json: baseline r is wrong")

        listed = {tuple(p["modes"]): p["gamma_mu"]
                  for p in summary["pair_thresholds"]}
        for a in range(1, int(ids.max(initial=0)), 2):
            samples = []
            for i in range(len(grid)):
                wa, wb = w[i][ids[i] == a], w[i][ids[i] == a + 1]
                if len(wa) != 1 or len(wb) != 1:
                    continue
                wa, wb = wa[0], wb[0]
                if abs(wa.real) > ZERO_TOL or abs(wb.real) > ZERO_TOL:
                    continue
                if np.sign(wa.imag) * np.sign(wb.imag) >= 0:
                    continue
                samples += [grid[i] ** 2 - wa.imag ** 2, grid[i] ** 2 - wb.imag ** 2]
            gamma_sq = float(np.mean(samples)) if len(samples) >= 6 else -1.0
            if gamma_sq < 0:
                self.expect((a, a + 1) not in listed,
                            f"sweep_summary.json: pair {a},{a + 1} has no fit")
                continue
            got = listed.get((a, a + 1))
            self.expect(got is not None
                        and _close(got, math.sqrt(gamma_sq), REL_TOL),
                        f"sweep_summary.json: threshold of pair {a},{a + 1}")
        return int(np.sum(ids == -1))

    def bands(self) -> None:
        res, blk = self.d["reservoir"], self.d["bands"]
        t_a, t_b = res["tA"], res["tB"]
        self.load_json("eps.json")
        for gamma in blk["gammas"]:
            name = f"bands_gamma{gamma:g}.csv"
            cols = self.load_csv(name)
            k = floats(cols["k"])
            grid = np.linspace(-np.pi, np.pi, blk["k_points"] + 1)[1:]
            if len(k) != len(grid):
                self.fail(f"{name}: {len(k)} rows, expected {len(grid)}")
                continue
            self.expect(np.allclose(k, grid, rtol=0, atol=1e-12),
                        f"{name}: wrong k grid")
            root = np.emath.sqrt(t_a ** 2 + t_b ** 2 + 2 * t_a * t_b * np.cos(k)
                                 - gamma ** 2 + 0j)
            plus = floats(cols["re_plus"]) + 1j * floats(cols["im_plus"])
            minus = floats(cols["re_minus"]) + 1j * floats(cols["im_minus"])
            onsite = self.d["onsite"]
            direct = np.maximum(np.abs(plus - onsite - root),
                                np.abs(minus - onsite + root))
            swapped = np.maximum(np.abs(plus - onsite + root),
                                 np.abs(minus - onsite - root))
            self.expect(bool(np.all(np.minimum(direct, swapped) <= 1e-9)),
                        f"{name}: band energies are wrong")

    def ensemble(self, exact: bool, peer: dict | None) -> dict:
        """Checks the ensemble; returns its payload for statistical peers."""
        p = self.load_json("ensemble.json")
        blk = self.d["ensemble"]
        for key, want in (("seed", self.d["seed"]), ("n", blk["n_realizations"]),
                          ("sigma", blk["sigma"]), ("periods", blk["periods"])):
            self.expect(p[key] == want, f"ensemble.json: {key} {p[key]} != {want}")
        mean, std = np.array(p["mean"]), np.array(p["std"])
        nr = self.d["reservoir"]["n"]
        if mean.shape != (nr,) or std.shape != (nr,):
            self.fail("ensemble.json: profiles have the wrong length")
            return p
        self.expect(bool(np.all((mean >= 0) & (mean <= 1 + 1e-12) & (std >= 0))),
                    "ensemble.json: profile values out of range")
        x = np.arange(nr, dtype=float)
        slope, intercept = np.polyfit(x, mean, 1)
        resid = mean - (slope * x + intercept)
        ss_tot = float(np.sum((mean - mean.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - float(resid @ resid) / ss_tot
        self.expect(abs(p["r2"] - min(max(r2, 0.0), 1.0)) <= 1e-9,
                    f"ensemble.json: r2 {p['r2']} != {r2}")
        if exact:
            want_mean, want_std = ensemble_profiles(self.d)
            err = max(np.abs(mean - want_mean).max(), np.abs(std - want_std).max())
            self.expect(err <= ENSEMBLE_TOL,
                        f"ensemble.json: profiles differ from the recomputed "
                        f"ensemble by {err:.2e}")
        if peer is not None:
            se = np.sqrt((std ** 2 + np.array(peer["std"]) ** 2) / p["n"])
            dev = np.abs(mean - np.array(peer["mean"])) - ENSEMBLE_SIGMAS * se
            self.expect(bool(np.all(dev <= 1e-12)),
                        "ensemble.json: mean profile is statistically "
                        "inconsistent with a verified ensemble")
        return p


def ensemble_profiles(d: dict) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std of the max-normalized |psi| over the reservoir, evolved
    with a dense matrix exponential from the same per-realization noise."""
    import scipy.linalg as sla

    h = chain_matrix(d)
    ev, vecs = np.linalg.eig(h)
    zero = np.flatnonzero(np.abs(ev.real) <= ZERO_TOL)
    base = vecs[:, zero[np.argmin(np.abs(ev[zero].imag))]]
    base = base / np.linalg.norm(base)
    blk, ns = d["ensemble"], d["system"]["n"]
    nr = d["reservoir"]["n"]
    states = np.tile(base[:, None], (1, blk["n_realizations"]))
    for i in range(blk["n_realizations"]):
        rng = np.random.default_rng(np.random.SeedSequence((d["seed"], i)))
        states[ns:, i] *= np.exp(blk["sigma"] * rng.standard_normal(nr))
    out = sla.expm(-1j * h * blk["periods"] * 2.0 * np.pi) @ states
    out = out / np.abs(out).max(axis=0, keepdims=True)
    prof = np.abs(out[ns:, :])
    return prof.mean(axis=1), prof.std(axis=1)


# -- stored references of the bundled scenarios -------------------------------

def normalized_bytes(path: Path, seed) -> bytes:
    """File bytes with the embedded scenario seed replaced by ``seed``."""
    text = path.read_text()
    if path.suffix == ".csv":
        lines = text.split("\n")
        data = json.loads(lines[1][len("# scenario: "):])
        data["seed"] = seed
        lines[1] = "# scenario: " + json.dumps(data, sort_keys=True)
        return "\n".join(lines).encode()
    payload = json.loads(text)
    payload["meta"]["scenario"]["seed"] = seed
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def csv_digest(columns: dict[str, list[str]]) -> dict:
    """Row count, string columns verbatim and numeric column sums."""
    digest = {"rows": len(next(iter(columns.values()), []))}
    for name, col in columns.items():
        if name in PHASE_COLUMNS:
            continue
        try:
            vals = floats(col)
        except ValueError:
            digest[name] = col
            continue
        digest[name] = [float(vals.sum()), float(np.abs(vals).sum())]
    return digest


def file_reference(path: Path, seed) -> dict:
    ref = {"sha256": hashlib.sha256(normalized_bytes(path, seed)).hexdigest()}
    if path.suffix == ".csv":
        ref["csv"] = csv_digest(read_csv(path)[1])
    else:
        payload = json.loads(path.read_text())
        payload.pop("meta")
        ref["json"] = payload
    return ref


def _compare(got, want, where: str, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{where}: keys differ from the reference")
            return
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: length differs from the reference")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", problems)
    elif isinstance(want, (bool, str)) or want is None:
        if got != want:
            problems.append(f"{where}: {got!r} != reference {want!r}")
    elif not isinstance(got, (int, float)) or isinstance(got, bool) \
            or not _close(got, want, REF_TOL):
        problems.append(f"{where}: {got!r} != reference {want!r}")


def compare_reference(out: Path, ref: dict) -> tuple[list[str], int]:
    """Problems against a bundled scenario's reference, and how many of its
    files are byte-identical to the reference (modulo the embedded seed)."""
    problems: list[str] = []
    identical = 0
    seed_dependent = ref["seed_dependent"]
    for name, fref in ref["files"].items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        digest = hashlib.sha256(normalized_bytes(path, ref["seed"])).hexdigest()
        identical += digest == fref["sha256"]
        if name in seed_dependent:
            continue
        if "csv" in fref:
            _compare(csv_digest(read_csv(path)[1]), fref["csv"], name, problems)
        else:
            payload = json.loads(path.read_text())
            payload.pop("meta", None)
            _compare(payload, fref["json"], name, problems)
    return problems, identical


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_item(d: dict, out: Path, *, reference: dict | None = None,
               exact_ensemble: bool = True, peer: dict | None = None) -> dict:
    """Check one item's outputs.

    ``d`` is the resolved scenario the program ran.  Returns a dict with
    ``problems`` (empty when correct), ``identical`` (files byte-identical
    to the reference), ``unnumbered_rows`` (sweep rows with mode_id -1,
    left by a split mode track) and ``payload`` (the ensemble result, for
    statistical comparison with later items).
    """
    check = Checker(d, out)
    result = {"problems": check.problems, "identical": 0, "unnumbered_rows": 0,
              "payload": None}
    task = d["task"]
    try:
        if task == "mode-profile":
            check.mode_profile()
        elif task == "spectrum":
            check.spectrum()
        elif task == "sweep":
            result["unnumbered_rows"] = check.sweep()
        elif task == "bands":
            check.bands()
        elif task == "ensemble":
            if peer is None and reference is not None:
                peer = reference["files"]["ensemble.json"]["json"]
            result["payload"] = check.ensemble(exact_ensemble, peer)
        else:
            check.fail(f"no oracle for task {task!r}")
        if reference is not None:
            problems, result["identical"] = compare_reference(out, reference)
            check.problems.extend(problems)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            AttributeError) as exc:
        check.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return result
