"""The nhzm benchmark: one seeded workload, timed, checked, reported.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The package is not installed: every child
process imports nhzm from ./src.  Workloads (see workloads.py and
BENCHMARK.json) are single-process closed loops, one item after another,
with BLAS at its default thread count.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 spends half the time untraced and half traced, and prints the
per-layer metrics, the tracing overhead and the tracer's start-up cost.
Either way every output is checked by oracle.py, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every time reported is scaled to nominal machine speed by a speed probe
taken just before it (speed.py); the raw wall times are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
from speed import NOMINAL_S, ProbeError, Speed, probe
from tracer import ITEM, aggregate, item_balance
from workloads import WORKLOADS, scenario

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], stderr_path: Path) -> tuple[int, float, float, int]:
    """Run a child to completion: (exit code, start, end, peak RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss


def worker(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, and
    that percentile; the maximum (percentile 100) for smaller samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


# -- environment and set-up ---------------------------------------------------

def environment(seed: int) -> dict:
    proc = subprocess.run(worker("env"), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise BenchError(f"environment probe failed: {proc.stderr.strip()}")
    record = json.loads(proc.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), **record,
            "commit": commit, "seed": seed}


def measure_setup(names: list[str]) -> tuple[float, float]:
    """Time from spawning an interpreter until nhzm.cli is imported and the
    workload's scenarios have passed load_scenario: (nominal, raw) medians,
    each spawn scaled by a speed probe taken just before it."""
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker("setup", *names), cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            scaled.append(times[-1] * NOMINAL_S / before)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode:
            raise BenchError(f"set-up probe failed: {err.decode().strip()}")
    return statistics.median(scaled), statistics.median(times)


def import_times() -> dict[str, float]:
    """Median ``python -X importtime`` cumulative seconds of the heavy
    dependencies, and the self time of nhzm's own modules."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import nhzm.cli"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise BenchError(f"import of nhzm.cli failed: {proc.stderr[-500:]}")
        found = {"nhzm_self": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if not self_us.strip().isdigit():
                continue
            if name in ("numpy", "scipy.linalg", "jsonschema"):
                found.setdefault(name, int(cum_us) / 1e6)
            if name == "nhzm" or name.startswith("nhzm."):
                found["nhzm_self"] += int(self_us) / 1e6
        for key, value in found.items():
            samples.setdefault(key, []).append(value)
    keys = {"numpy": "import.numpy_s", "scipy.linalg": "import.scipy_linalg_s",
            "jsonschema": "import.jsonschema_s", "nhzm_self": "import.nhzm_self_s"}
    return {metric: statistics.median(samples.get(key, [0.0]))
            for key, metric in keys.items()}


# -- running the workloads ----------------------------------------------------

def run_cold(wl, seed: int, seconds: float, workdir: Path,
             traced: bool) -> tuple[list[dict], int]:
    """Closed loop of fresh ``nhzm run`` processes, with speed probes
    between items; (items, peak RSS KiB)."""
    items, peak = [], 0
    speed = Speed()
    start = time.perf_counter()
    pass_index = 0
    while pass_index == 0 or time.perf_counter() - start < seconds:
        for slot in wl.slots:
            if pass_index and time.perf_counter() - start >= seconds:
                break
            probe_s = speed.between_items()
            tag = f"p{pass_index}-{slot}"
            out = workdir / tag
            args = ["run", slot, "--seed", str(seed), "--out", str(out)]
            spans = workdir / f"{tag}.spans.json"
            cmd = ([sys.executable, str(BENCH / "traced_main.py"), str(spans),
                    *args] if traced else
                   [sys.executable, "-m", "nhzm.cli", *args])
            err = workdir / f"{tag}.stderr"
            code, t0, t1, rss = spawn(cmd, err)
            peak = max(peak, rss)
            error = None
            if code:
                error = f"exit code {code}: {err.read_text()[-300:].strip()}"
            items.append({"tag": tag, "pass": pass_index, "slot": slot,
                          "out": str(out), "start": t0, "end": t1,
                          "probe_s": probe_s, "error": error,
                          "spans": str(spans) if traced else None})
        pass_index += 1
    return items, peak


def run_in_process(wl, seed: int, seconds: float, workdir: Path,
                   traced: bool) -> tuple[list[dict], int]:
    """One worker process running the closed loop; (items, peak RSS KiB)."""
    cmd = worker("run", wl.name, str(seed), str(seconds), str(workdir))
    if traced:
        cmd.append("--trace")
    err = workdir / "worker.stderr"
    code, _, _, rss = spawn(cmd, err)
    if code:
        raise BenchError(f"worker exited with {code}: {err.read_text()[-2000:]}")
    items = json.loads((workdir / "items.json").read_text())
    return items, rss


def run_workload(wl, seed, seconds, workdir, traced):
    workdir.mkdir()
    runner = run_cold if wl.cold else run_in_process
    return runner(wl, seed, seconds, workdir, traced)


def timings(wl, items: list[dict]) -> dict[str, float]:
    """Timings of a run, each item scaled by the speed probe before it."""
    raw = [it["end"] - it["start"] for it in items]
    durations = [d * NOMINAL_S / it["probe_s"] for it, d in zip(items, raw)]
    by_slot: dict[str, list[float]] = {}
    for it, d in zip(items, durations):
        by_slot.setdefault(it["slot"], []).append(d)
    slot_medians = {k: statistics.median(v) for k, v in by_slot.items()}
    done = sum(1 for it in items if it["error"] is None)
    return {
        # Both timings start from each slot's median item time: a run holds
        # only a few items of each kind, and pooling kinds that differ by 2x
        # lets one slow item move a pooled percentile to another kind.
        "run_s": sum(slot_medians.values()),
        "item_tail_s": max(slot_medians.values()),
        "slot_medians": slot_medians,
        # printed for reference only
        "item_p50_pooled": statistics.median(durations),
        "tail_percentile": (*tail_percentile(durations), len(durations)),
        # items per second of item time; the probes between items are left out
        "throughput_per_s": done / sum(durations),
        "passes": len(items) / len(wl.slots),
        "probe_s": statistics.median(it["probe_s"] for it in items),
        "raw_run_s": sum(statistics.median(d for it, d in zip(items, raw)
                                           if it["slot"] == slot)
                         for slot in slot_medians),
    }


# -- checking the outputs -----------------------------------------------------

def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def item_scenario(wl, seed: int, item: dict) -> dict:
    if wl.cold:
        raw = json.loads((SRC / "nhzm" / "scenarios" / f"{item['slot']}.json")
                         .read_text())
        return oracle.resolve(raw, seed)
    return oracle.resolve(scenario(wl.name, seed, item["pass"], item["slot"]),
                          None)


def verify(wl, seed: int, items: list[dict]) -> dict:
    """Check every item; identical outputs of one input are checked once.

    Sets ``identical`` (files byte-identical to the reference) and
    ``unnumbered_rows`` (sweep rows with mode_id -1) on each item checked.
    """
    refs = oracle.load_references() if wl.cold else {}
    verdicts: dict = {}
    failed, compared = [], 0
    peer = None
    last_of_slot = {item["slot"]: index for index, item in enumerate(items)}
    for index, item in enumerate(items):
        if item["error"] is not None:
            failed.append(f"{item['tag']}: {item['error']}")
            continue
        key = (item["slot"], output_digest(Path(item["out"])))
        if key not in verdicts:
            d = item_scenario(wl, seed, item)
            ref = refs.get(item["slot"])
            verdicts[key] = oracle.check_item(
                d, Path(item["out"]), reference=ref,
                exact_ensemble=peer is None
                or index == last_of_slot[item["slot"]], peer=peer)
            if verdicts[key]["payload"] is not None and peer is None \
                    and not verdicts[key]["problems"]:
                peer = verdicts[key]["payload"]
        verdict = verdicts[key]
        if verdict["problems"]:
            failed.append(f"{item['tag']}: " + "; ".join(verdict["problems"][:5]))
        item["identical"] = verdict["identical"]
        item["unnumbered_rows"] = verdict["unnumbered_rows"]
        compared += len(refs.get(item["slot"], {}).get("files", ()))
    return {"failed": failed, "compared": compared,
            "identical": sum(it.get("identical", 0) for it in items)}


def written(items: list[dict]) -> tuple[int, int]:
    """CSV data rows and bytes in the items' output files."""
    rows = size = 0
    for item in items:
        out = Path(item["out"])
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            data = path.read_bytes()
            size += len(data)
            if path.suffix == ".csv":
                rows += sum(1 for line in data.splitlines()
                            if not line.startswith(b"#")) - 1
    return rows, size


# -- traced run ---------------------------------------------------------------

def load_spans(wl, items: list[dict], workdir: Path) -> tuple[list, dict, list, list]:
    """(spans, counts per item tag, tracer start-up costs, problems) of a
    traced run."""
    problems: list[str] = []
    if not wl.cold:
        blob = json.loads((workdir / "spans.json").read_text())
        spans = blob["spans"]
        problems += item_balance(spans)
        return spans, blob["counts"], [blob["startup_s"]], problems
    spans, counts, startup = [], {}, []
    for item in items:
        if item["error"] is not None:  # counted as failed by verify()
            continue
        blob = json.loads(Path(item["spans"]).read_text())
        own = blob["spans"]
        problems += [f"{item['tag']}: {p}" for p in item_balance(own)]
        root = next((s for s in own if s[3] == ITEM), None)
        if root is None or not (item["start"] <= root[4] and root[5] <= item["end"]):
            problems.append(f"{item['tag']}: traced span outside the process "
                            "wall time")
        base = len(spans)
        for s in own:  # renumber so that ids stay unique across processes
            spans.append([s[0] + base, s[1] + base if s[1] >= 0 else -1,
                          item["tag"], *s[3:]])
        counts[item["tag"]] = blob["counts"].get("main", {})
        startup.append(blob["startup_s"])
    return spans, counts, startup, problems


def complete(wl, items: list[dict]) -> list[dict]:
    """The items of the passes that ran every slot."""
    size: dict[int, int] = {}
    for it in items:
        size[it["pass"]] = size.get(it["pass"], 0) + 1
    return [it for it in items if size[it["pass"]] == len(wl.slots)]


def layer_metrics(wl, items, spans, counts) -> dict[str, float]:
    """Per-pass layer statistics over the complete passes among ``items``."""
    items = complete(wl, items)
    passes = len(items) / len(wl.slots)
    tags = {it["tag"] for it in items}
    stats = aggregate([s for s in spans if s[2] in tags])
    totals: dict[str, int] = {}
    for tag in tags:
        for key, value in counts.get(tag, {}).items():
            totals[key] = totals.get(key, 0) + value
    counts = totals

    def stat(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0) / passes

    values = {}
    for name in ("scenario.load_scenario", "lattice.assemble_hamiltonian",
                 "lattice.Hamiltonian", "spectral.eigendecompose",
                 "spectral.find_zero_modes", "spectral.fit_pair_threshold",
                 "localization.classify_regime",
                 "perturbation.PerturbationSetup.from_spec",
                 "dynamics.propagate"):
        values[f"{name}.calls"] = stat(name, "calls")
    for name in ("lattice.coupled_chain", "lattice.assemble_hamiltonian",
                 "lattice.Hamiltonian", "spectral.eigendecompose",
                 "spectral.find_zero_modes", "spectral.sweep_gamma",
                 "spectral.track_modes", "localization.classify_regime",
                 "localization.check_stagger_phase",
                 "perturbation.PerturbationSetup.from_spec",
                 "perturbation.first_order_wavefunction",
                 "dynamics.ensemble_experiment", "bands.band_energies",
                 "cli.run_scenario"):
        values[f"{name}.self_s"] = stat(name, "self_s")
    values["scenario.load_scenario.total_s"] = stat("scenario.load_scenario",
                                                   "total_s")
    for key in ("spectral.eigendecompose.dense_n3_sum",
                "spectral.eigendecompose.near_defective",
                "spectral.find_zero_modes.zero_modes",
                "spectral.track_modes.splits",
                "spectral.fit_pair_threshold.failures"):
        values[key] = counts.get(key, 0) / passes
    built = counts.get("spectral.find_zero_modes.zero_modes", 0)
    values["spectral.zero_modes_used_ratio"] = (
        counts.get("spectral.zero_modes_used", 0) / built if built else 0.0)
    rows, size = written(items)
    values["cli.rows_written"] = rows / passes
    values["cli.bytes_written"] = size / passes
    for key, name in (("unnumbered_rows", "spectral.unnumbered_rows"),
                      ("identical", "oracle.byte_identical_files")):
        values[name] = sum(it.get(key, 0) for it in items) / passes
    return values


# -- main ---------------------------------------------------------------------

def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def report(name: str, values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nhzm" / "cli.py").is_file():
        print(f"no nhzm sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    specs = metric_specs()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        return measure(wl, args, specs, workdir)
    except (BenchError, ProbeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args, specs, workdir: Path) -> int:
    env = environment(args.seed)
    print(json.dumps({"environment": env, "workload": wl.name, "why": wl.why}))
    if wl.cold:
        names = list(wl.slots)
    else:
        names = []
        for slot in wl.slots:
            path = workdir / f"setup-{slot}.json"
            path.write_text(json.dumps(scenario(wl.name, args.seed, 0, slot)))
            names.append(str(path))
    setup_s, raw_setup_s = measure_setup(names)

    seconds = args.seconds / 2 if args.trace else args.seconds
    items, rss = run_workload(wl, args.seed, seconds, workdir / "plain", False)
    plain = timings(wl, items)
    values = {**plain, "setup_s": setup_s, "peak_rss_mb": rss / 1024}
    traced_items: list[dict] = []
    problems: list[str] = []
    if args.trace:
        traced_items, _ = run_workload(wl, args.seed, seconds,
                                       workdir / "traced", True)
    check = verify(wl, args.seed, items + traced_items)
    attempted, failed = len(items) + len(traced_items), len(check["failed"])
    if args.trace:
        spans, counts, startup, problems = load_spans(
            wl, traced_items, workdir / "traced")
        layers = layer_metrics(wl, traced_items, spans, counts)
        layers.update(import_times())
        layers["trace.run_s"] = timings(wl, traced_items)["run_s"]
        layers["trace.overhead_s"] = layers["trace.run_s"] - plain["run_s"]
        layers["trace.startup_s"] = statistics.median(startup)

    print(f"speed probe      {plain['probe_s']:.4f} s (median over items; "
          f"times below are scaled to a probe of {NOMINAL_S} s)")
    print(f"setup_s          {setup_s:.4f} s (median of {SETUP_PROBES} spawns; "
          f"raw {raw_setup_s:.4f} s)")
    print(f"run_s            {plain['run_s']:.4f} s per pass "
          f"({plain['passes']:.1f} passes, sum of per-slot medians; "
          f"raw {plain['raw_run_s']:.4f} s)")
    print(f"item p50         {plain['item_p50_pooled']:.4f} s (all items pooled)")
    pct_s, pct, n = plain["tail_percentile"]
    print(f"item_tail_s      {plain['item_tail_s']:.4f} s (slowest kind of "
          f"item; p{pct:.0f} of {n} single items is {pct_s:.4f} s)")
    print(f"throughput_per_s {plain['throughput_per_s']:.4f} items/s")
    print("slot medians     " + ", ".join(
        f"{k} {v:.3f} s" for k, v in plain["slot_medians"].items()))
    print(f"peak_rss_mb      {values['peak_rss_mb']:.1f} MB")
    print(f"failed_frac      {failed}/{attempted}")
    for line in check["failed"][:10]:
        print(f"  FAILED {line}")
    if check["compared"]:
        print(f"byte-identical   {check['identical']}/{check['compared']} "
              "reference files")
    if args.trace:
        print(f"tracing overhead {layers['trace.overhead_s']:+.4f} s per pass; "
              f"tracer start-up {layers['trace.startup_s']:.4f} s")
        for line in problems[:10]:
            print(f"  TRACE {line}")
        metrics = report(wl.name, layers, specs["per_layer"])
    else:
        metrics = report(wl.name, values, specs["end_to_end"])
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
