"""Self-test of the benchmark's failure accounting and trace bookkeeping.

    python3 bench/selftest.py

Checks that a corrupted omega, a missing output file, a corrupted ensemble
profile and a non-zero exit each count as a failed item, that untouched
outputs pass, and that in traced runs (a cold CLI process through
traced_main.py and an in-process worker) the self times of all spans plus
the untraced gaps add up to each item's wall time.  Runs every check and
exits non-zero if any failed.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracer import ITEM, item_balance, self_times
from workloads import WORKLOADS, Workload

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def corrupt(src: Path, dst: Path, name: str, edit) -> dict:
    shutil.copytree(src, dst)
    path = dst / name
    if edit is None:
        path.unlink()
    else:
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return {"tag": dst.name, "slot": src.name.split("-", 1)[1], "pass": 0,
            "out": str(dst), "error": None, "start": 0.0, "end": 1.0}


def shift_omega(payload: dict) -> None:
    payload["omega"]["im"] += 1e-3


def shift_mean(payload: dict) -> None:
    payload["mean"][3] *= 1.01


def check_wall_balance(items: list[dict], spans: list) -> None:
    """Self times plus the gap outside the traced root equal the wall time."""
    own = self_times(spans)
    for item in items:
        mine = [s for s in spans if s[2] == item["tag"]]
        root = next(s for s in mine if s[3] == ITEM)
        wall = item["end"] - item["start"] if "spans" in item and item["spans"] \
            else root[5] - root[4]
        gap = wall - (root[5] - root[4])
        total = sum(own[s[0]] for s in mine) + gap
        expect(gap >= 0 and abs(total - wall) <= 1e-9 * max(1.0, wall),
               f"{item['tag']}: self {total - gap:.6f} s + gap {gap:.6f} s "
               f"= wall {wall:.6f} s")


def main() -> int:
    seed = 20260810
    cold = Workload("selftest", ("fig1c", "ensemble-fig4c", "no-such-scenario"),
                    True, "self-test")
    work = Path(tempfile.mkdtemp(prefix=".bench-selftest-", dir=run.ROOT))
    try:
        items, _ = run.run_workload(cold, seed, 0, work / "plain", False)
        check = run.verify(cold, seed, items)
        expect(len(check["failed"]) == 1
               and check["failed"][0].startswith("p0-no-such-scenario: exit code"),
               "a non-zero exit counts as failed, good outputs pass")
        expect(check["identical"] == check["compared"] == 3,
               "outputs at the reference seed are byte-identical")

        fig1c, fig4c = (work / "plain" / "p0-fig1c",
                        work / "plain" / "p0-ensemble-fig4c")
        bad = [corrupt(fig1c, work / "x-fig1c-omega", "regime.json", shift_omega),
               corrupt(fig1c, work / "x-fig1c-missing", "profile.csv", None),
               corrupt(fig4c, work / "x-ensemble-fig4c-mean", "ensemble.json",
                       shift_mean)]
        for item in bad:
            check = run.verify(cold, seed, [item])
            expect(len(check["failed"]) == 1, f"{item['tag']} counts as failed")

        traced, _ = run.run_workload(cold, seed, 0, work / "traced", True)
        spans, _, startup, problems = run.load_spans(cold, traced,
                                                     work / "traced")
        traced = [it for it in traced if it["error"] is None]
        expect(not problems, f"cold trace is consistent {problems[:3]}")
        check_wall_balance(traced, spans)
        expect(all(0 < s < 1 for s in startup), "tracer start-up is recorded")

        wl = WORKLOADS["in-process"]
        items, _ = run.run_workload(wl, 7, 0, work / "in-process", True)
        spans, _, _, problems = run.load_spans(wl, items,
                                                    work / "in-process")
        expect(not problems, f"in-process trace is consistent {problems[:3]}")
        check_wall_balance(items, spans)
        expect(not run.verify(wl, 7, items)["failed"],
               "in-process outputs pass")

        broken = [[0, -1, "x", ITEM, 0.0, 1.0], [1, 0, "x", "child", 0.5, 1.5]]
        expect(bool(item_balance(broken)), "a child outside its parent is caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
