"""Batch front-end: scenario files in, figure-reproduction data files out.

``nhzm run <scenario>`` executes one scenario (a path or a bundled name)
and writes CSV/JSON outputs that embed the fully resolved scenario and the
package version, so identical inputs give byte-identical files.
``nhzm report <dir>`` summarizes the outputs of a previous run and
``nhzm schema`` prints the scenario JSON schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bands import band_energies
from .dynamics import ensemble_experiment
from .errors import NhzmError
from .lattice import assemble_hamiltonian
from .localization import (RegimeReport, check_stagger_phase, classify_regime,
                           linear_peak_amplitude)
from .perturbation import (PerturbationSetup, _compare_to_exact,
                           first_order_zero_mode)
from .scenario import SCENARIO_SCHEMA, Scenario, ScenarioError, load_scenario
from .spectral import (ZERO_TOL, assign_mode_numbers, eigendecompose,
                       find_zero_modes, fit_pair_threshold, lowest_zero_mode,
                       sweep_gamma, track_modes)

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_NUMERICAL = 3


def _meta(scenario: Scenario) -> dict:
    return {"version": __version__, "scenario": scenario.data}


def _write_csv(path: Path, header, columns, scenario: Scenario) -> None:
    """Write one CSV line per row of the given equal-length columns.

    A column's dtype picks its text: repr for floats (shortest round-trip
    digits), str for integers and strings.
    """
    lines = [f"# nhzm {__version__}",
             "# scenario: " + json.dumps(scenario.data, sort_keys=True),
             ",".join(header)]
    text = []
    for column in columns:
        values = np.asarray(column)
        text.append(map(repr if values.dtype.kind == "f" else str,
                        values.tolist()))
    lines.extend(map(",".join, zip(*text)))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict, scenario: Scenario) -> None:
    payload = {"meta": _meta(scenario), **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=_jsonify) + "\n")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj)}")


def _regime_payload(report: RegimeReport, extra: dict | None = None) -> dict:
    payload = {
        "gamma": report.gamma,
        "omega": {"re": report.omega.real, "im": report.omega.imag},
        "alpha": report.alpha,
        "r": report.r,
        "regime": report.regime.value,
        "roots": [{"re": b.real, "im": b.imag} for b in report.roots],
        "decay_rate": report.decay_rate,
        "fits": {label: {"slope": f.slope, "intercept": f.intercept,
                         "r2": f.r_squared}
                 for label, f in report.fits.items()},
    }
    if extra:
        payload.update(extra)
    return payload


def _task_spectrum(scenario: Scenario, out: Path) -> None:
    spec = scenario.build_spec()
    modes = eigendecompose(assemble_hamiltonian(spec))
    zms = find_zero_modes(modes, spec, scenario.data["onsite"])
    w = modes.eigenvalues
    _write_csv(out / "spectrum.csv", ("mode_index", "re_omega", "im_omega"),
               (np.arange(len(w)), w.real, w.imag), scenario)
    reports = [_regime_payload(classify_regime(zm, spec),
                               {"mode_index": zm.mode_index})
               for zm in zms]
    _write_json(out / "zero_modes.json", {"zero_modes": reports}, scenario)


def _baseline_zero_mode(scenario: Scenario):
    spec = scenario.build_spec()
    zm = lowest_zero_mode(spec, scenario.data["onsite"])
    if zm is None:
        raise NhzmError("no zero mode found for this scenario")
    return spec, zm


def _task_mode_profile(scenario: Scenario, out: Path) -> None:
    spec, zm = _baseline_zero_mode(scenario)
    psi = zm.wavefunction / np.abs(zm.wavefunction).max()

    pert = first_order_zero_mode(spec, scenario.data["onsite"])
    scale = np.vdot(pert, psi) / np.vdot(pert, pert)
    pert = scale * pert

    _write_csv(out / "profile.csv",
               ("site", "sublattice", "abs_exact", "re_exact", "im_exact",
                "abs_pert"),
               (np.arange(spec.n_sites), spec.sublattices(),
                np.hypot(psi.real, psi.imag), psi.real, psi.imag,
                np.hypot(pert.real, pert.imag)), scenario)

    report = classify_regime(zm, spec)
    stagger = check_stagger_phase(psi, spec.partition)
    res = list(spec.reservoir_sites())
    t_a, t_b = spec.reservoir_couplings()
    extra = {
        "staggered": stagger.staggered,
        "in_phase_per_sublattice": stagger.in_phase_per_sublattice,
        "peak_reservoir_amplitude": float(np.abs(psi[res]).max()),
        "predicted_linear_peak": linear_peak_amplitude(
            scenario.data["coupling"], t_a, len(res)),
    }
    _write_json(out / "regime.json", _regime_payload(report, extra), scenario)


def _pair_r(im_omega: np.ndarray, gamma: np.ndarray,
            t_ab: float) -> np.ndarray:
    """r = (Im(omega)^2 - gamma^2) / (t_A t_B), elementwise.

    Squares through ``np.float_power``, which calls libm's pow per element
    as a scalar ``x ** 2`` does; an array's ``x ** 2`` is x * x, which
    differs from pow in the last bit for about 0.1% of values.
    """
    return (np.float_power(im_omega, 2) - np.float_power(gamma, 2)) / t_ab


def _task_sweep(scenario: Scenario, out: Path) -> None:
    blk = scenario.data["sweep"]
    grid = np.arange(blk["gamma_start"],
                     blk["gamma_stop"] + 0.5 * blk["gamma_step"],
                     blk["gamma_step"])
    sweeps = sweep_gamma(scenario.build_spec, grid)
    trajectories = assign_mode_numbers(track_modes(sweeps, grid), len(grid))

    omega0 = scenario.data["onsite"]
    t_ab = scenario.data["reservoir"]["tA"] * scenario.data["reservoir"]["tB"]
    gamma = np.concatenate([t.parameters for t in trajectories])
    mode_id = np.concatenate([
        np.full(len(t.parameters),
                t.mode_number if t.mode_number is not None else -1)
        for t in trajectories])
    w = np.concatenate([t.eigenvalues for t in trajectories])
    # stable: rows of equal (gamma, mode_id) keep the trajectory order
    order = np.lexsort((mode_id, gamma))
    gamma, mode_id, w = gamma[order], mode_id[order], w[order]
    _write_csv(out / "sweep.csv",
               ("gamma", "mode_id", "re_omega", "im_omega", "r"),
               (gamma, mode_id, w.real, w.imag, _pair_r(w.imag, gamma, t_ab)),
               scenario)

    # each step's first zero mode in the order of ``find_zero_modes``: the
    # smallest |Im omega| among |Re omega - omega0| <= ZERO_TOL, the lowest
    # index among ties
    ws = np.array([m.eigenvalues for m in sweeps])
    zero = np.abs(ws.real - omega0) <= ZERO_TOL
    first = np.where(zero, np.abs(ws.imag), np.inf).argmin(axis=1)
    steps = np.flatnonzero(zero.any(axis=1))
    im = ws[steps, first[steps]].imag
    baseline = [{"gamma": g, "im_omega": i, "r": r} for g, i, r in zip(
        grid[steps].tolist(), im.tolist(),
        _pair_r(im, grid[steps], t_ab).tolist())]
    pairs = []
    by_number = {t.mode_number: t for t in trajectories if t.mode_number}
    for odd in range(1, len(by_number), 2):
        a, b = by_number.get(odd), by_number.get(odd + 1)
        if a is None or b is None:
            continue
        try:
            pairs.append({"modes": [odd, odd + 1],
                          "gamma_mu": fit_pair_threshold(a, b, omega0)})
        except NhzmError:
            continue
    _write_json(out / "sweep_summary.json",
                {"baseline": baseline, "pair_thresholds": pairs}, scenario)


def _task_bands(scenario: Scenario, out: Path) -> None:
    res = scenario.data["reservoir"]
    blk = scenario.data["bands"]
    all_eps = []
    for gamma in blk["gammas"]:
        scan = band_energies(res["tA"], res["tB"], gamma,
                             scenario.data.get("onsite", 0.0), blk["k_points"])
        _write_csv(out / f"bands_gamma{gamma:g}.csv",
                   ("k", "re_plus", "im_plus", "re_minus", "im_minus"),
                   (scan.k_grid, scan.omega_plus.real, scan.omega_plus.imag,
                    scan.omega_minus.real, scan.omega_minus.imag), scenario)
        for ep in scan.eps:
            all_eps.append({
                "gamma": gamma, "k": ep.k,
                "vector": [{"re": v.real, "im": v.imag} for v in ep.vector],
                "coalescence": ep.coalescence,
                "eigenvalue_gap": ep.eigenvalue_gap,
            })
    _write_json(out / "eps.json", {"exceptional_points": all_eps}, scenario)


def _task_ensemble(scenario: Scenario, out: Path) -> None:
    spec, zm = _baseline_zero_mode(scenario)
    blk = scenario.data["ensemble"]
    result = ensemble_experiment(
        spec, zm, sigma=blk["sigma"],
        n_realizations=blk["n_realizations"], periods=blk["periods"],
        seed=scenario.data["seed"])
    _write_json(out / "ensemble.json", {
        "seed": result.seed, "n": result.n_realizations,
        "sigma": result.sigma, "periods": result.duration,
        "mean": result.mean_abs_profile, "std": result.std_profile,
        "r2": result.r_squared,
    }, scenario)


def _task_perturbation(scenario: Scenario, out: Path) -> None:
    spec = scenario.build_spec()
    modes = eigendecompose(assemble_hamiltonian(spec))
    setup = PerturbationSetup.from_spec(spec)
    mode_index = setup.zero_mode_index()
    comparison, pert, j = _compare_to_exact(setup, modes, mode_index)
    exact = modes.right_vectors[:, j]
    exact = exact / np.abs(exact).max()
    pert = (np.vdot(pert, exact) / np.vdot(pert, pert)) * pert
    n = spec.n_sites
    _write_csv(out / "perturbation.csv",
               ("site", "abs_exact", "abs_pert", "mode_index"),
               (np.arange(n), np.hypot(exact.real, exact.imag),
                np.hypot(pert.real, pert.imag),
                np.full(n, mode_index)), scenario)
    _write_json(out / "perturbation.json", {
        "vector_error": comparison.vector_error,
        "energy_error": comparison.energy_error,
        "omega_exact": comparison.omega_exact,
        "omega_perturbative": comparison.omega_perturbative,
    }, scenario)


_TASKS = {
    "spectrum": _task_spectrum,
    "mode-profile": _task_mode_profile,
    "sweep": _task_sweep,
    "bands": _task_bands,
    "ensemble": _task_ensemble,
    "perturbation": _task_perturbation,
}


def run_scenario(path_or_name: str, out_dir: str,
                 seed_override: int | None = None) -> Path:
    scenario = load_scenario(path_or_name, seed_override)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _TASKS[scenario.task](scenario, out)
    return out


def _cmd_run(args) -> int:
    try:
        out = run_scenario(args.scenario, args.out, args.seed)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (NhzmError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote outputs to {out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"no such output directory: {directory}", file=sys.stderr)
        return EXIT_SCENARIO
    found = False
    for name in ("regime.json", "zero_modes.json", "sweep_summary.json",
                 "eps.json", "ensemble.json", "perturbation.json"):
        path = directory / name
        if not path.exists():
            continue
        found = True
        payload = json.loads(path.read_text())
        scenario = payload.get("meta", {}).get("scenario", {})
        print(f"== {name} (task: {scenario.get('task', '?')})")
        _summarize(name, payload)
    if not found:
        print(f"no recognized output files in {directory}", file=sys.stderr)
        return EXIT_SCENARIO
    return EXIT_OK


def _summarize(name: str, payload: dict) -> None:
    if name == "regime.json":
        omega = payload["omega"]
        print(f"  zero mode omega/t = {omega['re']:.4g}{omega['im']:+.4g}i")
        print(f"  regime: {payload['regime']}, alpha={payload['alpha']:.4f}, "
              f"r={payload['r']:.4f}")
        if payload.get("decay_rate") is not None:
            print(f"  decay rate per sublattice step: {payload['decay_rate']:.4f}")
        for label, fit in sorted(payload["fits"].items()):
            print(f"  fit {label}: slope={fit['slope']:.5f}, R2={fit['r2']:.6f}")
        print(f"  staggered={payload['staggered']}, "
              f"in_phase={payload['in_phase_per_sublattice']}")
        print(f"  peak reservoir amplitude {payload['peak_reservoir_amplitude']:.5f} "
              f"(linear-profile prediction {payload['predicted_linear_peak']:.5f})")
    elif name == "zero_modes.json":
        for zm in payload["zero_modes"]:
            omega = zm["omega"]
            print(f"  mode {zm['mode_index']}: omega/t = "
                  f"{omega['re']:.4g}{omega['im']:+.4g}i  {zm['regime']}  "
                  f"alpha={zm['alpha']:.4f}")
    elif name == "sweep_summary.json":
        for pair in payload["pair_thresholds"]:
            print(f"  modes {pair['modes']}: threshold gamma_mu = "
                  f"{pair['gamma_mu']:.4f}")
        baseline = payload["baseline"]
        if baseline:
            worst = max(abs(b["im_omega"]) for b in baseline)
            print(f"  baseline zero mode tracked at {len(baseline)} points, "
                  f"max |Im omega| = {worst:.4f}")
    elif name == "eps.json":
        for ep in payload["exceptional_points"]:
            print(f"  gamma={ep['gamma']:g}: k={ep['k']:+.4f}, "
                  f"coalescence={ep['coalescence']:.2e}, "
                  f"gap={ep['eigenvalue_gap']:.2e}")
    elif name == "ensemble.json":
        print(f"  n={payload['n']}, sigma={payload['sigma']}, "
              f"periods={payload['periods']:g}, seed={payload['seed']}")
        print(f"  ensemble-mean linear fit R2 = {payload['r2']:.4f}")
    elif name == "perturbation.json":
        print(f"  vector error {payload['vector_error']:.4e}, "
              f"energy error {payload['energy_error']:.4e}")


def _cmd_schema(_args) -> int:
    print(json.dumps(SCENARIO_SCHEMA, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhzm",
        description="Zero modes of 1D gain/loss lattices: batch scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario",
                       help="path to a scenario JSON or a bundled name")
    p_run.add_argument("--out", default="nhzm-out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="summarize outputs of a run")
    p_report.add_argument("directory")
    p_report.set_defaults(func=_cmd_report)

    p_schema = sub.add_parser("schema", help="print the scenario JSON schema")
    p_schema.set_defaults(func=_cmd_schema)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
