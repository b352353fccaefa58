"""Workload definitions and seeded scenario generation.

Every workload is a closed loop of passes, and every pass is a fixed list
of slots; one slot is one item, i.e. one ``nhzm run`` subprocess or one
in-process ``run_scenario`` call.  The scenario of an item is a pure
function of (workload, seed, pass, slot), so the worker that runs it and
the oracle that checks it derive the same input independently, and no two
passes of an in-process workload repeat an input.

``in-process`` runs a large chain, a gamma sweep and a noise ensemble in
one pass of one process.  As three workloads of their own, each got too
few items into a run that the run budget allows to be steady on a shared
two-core machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The ten scenarios bundled with the package, in the order a pass runs them.
BUNDLED = ("ensemble-fig4c", "fig1b", "fig1c", "fig1d", "fig2", "fig3a",
           "fig3b", "figS1", "figS2", "figS6-defect")

SYSTEM = {"n": 9, "tA": 1.0, "tB": 0.2}
SWEEP_GRID = {"gamma_start": 0.0, "gamma_stop": 3.0, "gamma_step": 0.01}
ENSEMBLE_REALIZATIONS = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[str, ...]
    cold: bool           # items are fresh ``python -m nhzm.cli`` processes
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("cold-figures", BUNDLED, True,
             "all 10 paper scenarios as fresh CLI processes: startup, "
             "imports and writers dominate, as for the paper's users"),
    Workload("in-process",
             ("mode-profile-extended", "mode-profile-exponential",
              "spectrum-critical", "sweep", "ensemble"), False,
             "run_scenario in one process on a 9+500 chain (N^3 eigensolves), "
             "a 301-point sweep at N=59 and a 20000-realization ensemble"),
)}


def _chain(task: str, n_reservoir: int, gamma: float, t_prime: float) -> dict:
    return {"task": task, "system": dict(SYSTEM),
            "reservoir": {"n": n_reservoir, "tA": 1.0, "tB": 1.0,
                          "gamma": gamma},
            "coupling": t_prime, "onsite": 0.0}


def scenario(workload: str, seed: int, pass_index: int, slot: str) -> dict:
    """The scenario file content of one in-process item."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}/{slot}")
    t_prime = round(rng.uniform(0.15, 0.25), 6)
    if slot == "mode-profile-extended":
        return _chain("mode-profile", 500, round(rng.uniform(0.45, 0.55), 6),
                      t_prime)
    if slot == "mode-profile-exponential":
        return _chain("mode-profile", 500, round(rng.uniform(2.9, 3.1), 6),
                      t_prime)
    if slot == "spectrum-critical":
        return _chain("spectrum", 500, round(rng.uniform(1.95, 2.05), 6),
                      t_prime)
    if slot == "sweep":
        return {**_chain("sweep", 50, 2.0, t_prime), "sweep": dict(SWEEP_GRID)}
    if slot == "ensemble":
        # the noise seed: the run's seed for pass 0, distinct for later passes
        return {**_chain("ensemble", 100, 2.0, 0.2),
                "seed": (seed % 2 ** 32) * 1000 + pass_index,
                "ensemble": {"sigma": 0.1,
                             "n_realizations": ENSEMBLE_REALIZATIONS,
                             "periods": 0.17}}
    raise ValueError(f"unknown slot {slot!r}")
