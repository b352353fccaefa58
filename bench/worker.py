"""Child process of the benchmark; imports nhzm from the checkout's src/.

    python bench/worker.py setup <scenario>...
        Import nhzm.cli, pass every scenario through load_scenario, print
        "ready" and exit.  The parent times spawn-to-ready.
    python bench/worker.py run <workload> <seed> <seconds> <workdir> [--trace]
        Closed loop of in-process run_scenario calls, one item after
        another, until <seconds> have passed, with speed probes (speed.py)
        between items; writes <workdir>/items.json and, traced,
        <workdir>/spans.json.
    python bench/worker.py env
        Print the interpreter, package and BLAS versions as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from speed import Speed
from workloads import WORKLOADS, scenario


def setup(names: list[str]) -> None:
    from nhzm.cli import load_scenario

    for name in names:
        load_scenario(name)
    print("ready", flush=True)


def run(workload: str, seed: int, seconds: float, workdir: Path,
        trace: bool) -> None:
    import nhzm.cli

    tracer = None
    if trace:
        t0 = time.perf_counter()
        from tracer import ITEM, Tracer

        tracer = Tracer()
        tracer.install()
        startup = time.perf_counter() - t0
    wl = WORKLOADS[workload]
    items = []
    speed = Speed()
    start = time.perf_counter()
    pass_index = 0
    # stop at an item boundary once time is up, but finish the first pass
    while pass_index == 0 or time.perf_counter() - start < seconds:
        for slot in wl.slots:
            if pass_index and time.perf_counter() - start >= seconds:
                break
            probe_s = speed.between_items()
            tag = f"p{pass_index}-{slot}"
            path = workdir / f"{tag}.json"
            path.write_text(json.dumps(scenario(workload, seed, pass_index, slot)))
            out = workdir / tag
            error = None
            t0 = time.perf_counter()
            try:
                with tracer.span(ITEM, item=tag) if tracer else nullcontext():
                    nhzm.cli.run_scenario(str(path), str(out))
            except Exception as exc:  # a failed item is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            items.append({"tag": tag, "pass": pass_index, "slot": slot,
                          "scenario": str(path), "out": str(out),
                          "start": t0, "end": t1, "probe_s": probe_s,
                          "error": error})
        pass_index += 1
    (workdir / "items.json").write_text(json.dumps(items))
    if tracer is not None:
        tracer.dump(workdir / "spans.json", startup_s=startup)


def environment() -> dict:
    import ctypes
    from importlib.metadata import version

    import numpy as np
    import scipy
    import scipy.linalg

    scipy.linalg.eig(np.eye(2))  # load scipy's LAPACK
    blas = {}
    for label, mod in (("numpy", np), ("scipy", scipy)):
        cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[label] = f"{cfg.get('name')} {cfg.get('version')}"
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                threads[Path(lib).name] = int(fn())
                break
    return {"python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "jsonschema": version("jsonschema"),
            "blas": blas, "blas_threads": threads}


def main(argv: list[str]) -> None:
    cmd = argv[0]
    if cmd == "setup":
        setup(argv[1:])
    elif cmd == "run":
        run(argv[1], int(argv[2]), float(argv[3]), Path(argv[4]),
            "--trace" in argv[5:])
    elif cmd == "env":
        print(json.dumps(environment()))
    else:
        raise SystemExit(f"unknown worker command {cmd!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
