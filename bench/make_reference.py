"""Regenerate ``reference.json`` from the current checkout.

Runs every bundled scenario once with its own seed through
``python -m nhzm.cli run`` and stores, per output file, the sha256 of its
bytes and the values the oracle compares against.  Run it from the
repository root only when a change is meant to alter the bundled outputs:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import oracle
from run import ROOT, child_env
from workloads import BUNDLED

SCENARIO_DIR = ROOT / "src" / "nhzm" / "scenarios"
# Files whose content depends on the seed passed with --seed.
SEED_DEPENDENT = {"ensemble-fig4c": ["ensemble.json"]}


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in BUNDLED:
            out = Path(tmp) / name
            subprocess.run([sys.executable, "-m", "nhzm.cli", "run", name,
                            "--out", str(out)], env=child_env(), check=True,
                           stdout=subprocess.DEVNULL)
            d = oracle.resolve(json.loads((SCENARIO_DIR / f"{name}.json")
                                          .read_text()), None)
            problems = oracle.check_item(d, out)["problems"]
            if problems:
                print(f"{name}: refusing to store failing outputs: {problems}",
                      file=sys.stderr)
                return 1
            refs[name] = {
                "seed": d["seed"],
                "seed_dependent": SEED_DEPENDENT.get(name, []),
                "files": {p.name: oracle.file_reference(p, d["seed"])
                          for p in sorted(out.iterdir())},
            }
    oracle.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                     + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
