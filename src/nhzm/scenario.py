"""Scenario files: schema, validation, and resolution to lattice specs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import NhzmError
from .lattice import DENSE_MAX_SITES, LatticeSpec, coupled_chain

TASKS = ("spectrum", "sweep", "mode-profile", "bands", "ensemble",
         "perturbation")

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "nhzm scenario",
    "type": "object",
    "additionalProperties": False,
    "required": ["task"],
    "properties": {
        "description": {"type": "string"},
        "task": {"enum": list(TASKS)},
        "onsite": {"type": "number"},
        "seed": {"type": "integer", "minimum": 0},
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n", "tA", "tB"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "tA": {"type": "number", "exclusiveMinimum": 0},
                "tB": {"type": "number", "exclusiveMinimum": 0},
                "gamma": {"type": "number", "minimum": 0},
            },
        },
        "reservoir": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n", "tA", "tB", "gamma"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "tA": {"type": "number", "exclusiveMinimum": 0},
                "tB": {"type": "number", "exclusiveMinimum": 0},
                "gamma": {"type": "number", "minimum": 0},
                "onsite": {"type": "number"},
            },
        },
        "coupling": {"type": "number", "exclusiveMinimum": 0},
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["gamma_start", "gamma_stop", "gamma_step"],
            "properties": {
                "gamma_start": {"type": "number", "minimum": 0},
                "gamma_stop": {"type": "number", "minimum": 0},
                "gamma_step": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "ensemble": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sigma": {"type": "number", "minimum": 0},
                "n_realizations": {"type": "integer", "minimum": 1},
                "periods": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "bands": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gammas": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
                "k_points": {"type": "integer", "minimum": 3},
            },
        },
    },
}

# Tasks that simulate the finite coupled chain need all three lattice blocks.
_NEEDS_LATTICE = ("spectrum", "sweep", "mode-profile", "ensemble",
                  "perturbation")


class ScenarioError(NhzmError, ValueError):
    """Scenario file is unreadable or violates the schema."""


@dataclass(frozen=True)
class Scenario:
    """A validated scenario with all defaults resolved."""

    data: dict
    name: str

    @property
    def task(self) -> str:
        return self.data["task"]

    def build_spec(self, gamma: float | None = None) -> LatticeSpec:
        """The coupled chain of this scenario, optionally at another gamma."""
        sys_blk = self.data["system"]
        res_blk = self.data["reservoir"]
        return coupled_chain(
            res_blk["gamma"] if gamma is None else gamma,
            n_system=sys_blk["n"], system_t_a=sys_blk["tA"],
            system_t_b=sys_blk["tB"], system_gamma=sys_blk["gamma"],
            n_reservoir=res_blk["n"], reservoir_t_a=res_blk["tA"],
            reservoir_t_b=res_blk["tB"], t_prime=self.data["coupling"],
            onsite=self.data["onsite"], reservoir_onsite=res_blk["onsite"],
        )

    def sweep_grid(self) -> np.ndarray:
        """The gammas of the ``sweep`` block, gamma_stop included."""
        blk = self.data["sweep"]
        return np.arange(blk["gamma_start"],
                         blk["gamma_stop"] + 0.5 * blk["gamma_step"],
                         blk["gamma_step"])


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON Schema types by Python value; as in draft 2020-12, a float with an
# integral value is an integer and a bool is not a number
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}


def _violations(schema: dict, value, path: tuple = ()):
    """Yield (path, message) for each place ``value`` violates ``schema``.

    Implements exactly the JSON Schema (draft 2020-12) keywords that
    ``SCENARIO_SCHEMA`` uses, in the order ``jsonschema`` reports them, and
    raises NotImplementedError on any other keyword, so that a schema edit
    cannot go unchecked.  ``$schema`` and ``title`` are annotations.
    """
    for key, rule in schema.items():
        if key in ("$schema", "title"):
            continue
        if key == "type":
            if not _TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum":
            if value not in rule:
                yield path, f"{value!r} is not one of {rule!r}"
        elif key == "minimum":
            if _is_number(value) and value < rule:
                yield path, f"{value!r} is less than the minimum of {rule!r}"
        elif key == "exclusiveMinimum":
            if _is_number(value) and value <= rule:
                yield path, (f"{value!r} is less than or equal to the "
                             f"minimum of {rule!r}")
        elif key == "required":
            if isinstance(value, dict):
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in rule.items():
                    if name in value:
                        yield from _violations(sub, value[name], path + (name,))
        elif key == "additionalProperties" and rule is False:
            if isinstance(value, dict):
                extra = [k for k in value if k not in schema.get("properties", {})]
                if extra:
                    verb = "was" if len(extra) == 1 else "were"
                    yield path, ("Additional properties are not allowed ("
                                 f"{', '.join(map(repr, extra))} {verb} "
                                 "unexpected)")
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _violations(rule, item, path + (i,))
        elif key == "minItems":
            if isinstance(value, list) and len(value) < rule:
                yield path, f"{value!r} is too short"
        else:
            raise NotImplementedError(
                f"schema keyword {key!r}: {rule!r} is not supported")


def _integers_as_int(schema: dict, value):
    """``value`` with every field that ``schema`` types "integer" an int.

    Draft 2020-12 counts an integral float such as 9.0 as an integer, so a
    valid scenario can hold one where the code needs an int.
    """
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _integers_as_int(props[k], v) if k in props else v
                for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_integers_as_int(schema["items"], v) for v in value]
    return value


def bundled_scenario_names() -> list[str]:
    files = resources.files("nhzm").joinpath("scenarios")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def _read_scenario_text(path_or_name: str) -> tuple[str, str]:
    path = Path(path_or_name)
    if path.exists():
        return path.read_text(), path.stem
    bundled = resources.files("nhzm").joinpath(f"scenarios/{path_or_name}.json")
    if bundled.is_file():
        return bundled.read_text(), str(path_or_name)
    raise ScenarioError(
        f"no such scenario file or bundled scenario: {path_or_name!r} "
        f"(bundled: {', '.join(bundled_scenario_names())})")


def _finite(literal: str) -> float:
    # json accepts NaN, Infinity and overflowing literals such as 1e999,
    # and no schema bound rejects NaN
    value = float(literal)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {literal} is not allowed")
    return value


def load_scenario(path_or_name: str, seed_override: int | None = None) -> Scenario:
    """Read, validate, and resolve a scenario file or bundled scenario name.

    Raises ScenarioError with a location-anchored message on JSON or schema
    violations, and on a non-finite number; unknown keys are rejected by the
    schema.  Of several violations the one at the first path is reported.
    ``seed_override`` replaces the file's seed before validation, so it must
    satisfy the schema as a seed in the file would.  A sweep grid of fewer
    than two points is refused.  Integer-typed fields come back as int,
    also when written as 9.0.
    """
    text, name = _read_scenario_text(str(path_or_name))
    try:
        raw = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if seed_override is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed_override}

    errors = list(_violations(SCENARIO_SCHEMA, raw))
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        where = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise ScenarioError(f"schema violation at {where}: {message}")
    raw = _integers_as_int(SCENARIO_SCHEMA, raw)

    task = raw["task"]
    if task in _NEEDS_LATTICE:
        for key in ("system", "reservoir", "coupling"):
            if key not in raw:
                raise ScenarioError(f"task {task!r} requires {key!r}")
        # only an odd system ends on the sublattice that continues into
        # the reservoir (see ``lattice.coupled_chain``)
        if raw["system"]["n"] % 2 == 0:
            raise ScenarioError(
                f"system.n must be odd, got {raw['system']['n']}")
    if task == "bands" and "reservoir" not in raw:
        raise ScenarioError("task 'bands' requires 'reservoir'")
    if task == "sweep" and "sweep" not in raw:
        raise ScenarioError("task 'sweep' requires a 'sweep' block")

    resolved = dict(raw)
    resolved.setdefault("onsite", 0.0)
    resolved.setdefault("seed", 0)
    if "system" in resolved:
        system = dict(resolved["system"])
        system.setdefault("gamma", 0.0)
        resolved["system"] = system
    if "reservoir" in resolved:
        res = dict(resolved["reservoir"])
        res.setdefault("onsite", resolved["onsite"])
        resolved["reservoir"] = res
    if task == "ensemble":
        block = dict(resolved.get("ensemble", {}))
        block.setdefault("sigma", 0.1)
        block.setdefault("n_realizations", 1000)
        block.setdefault("periods", 1e4)
        resolved["ensemble"] = block
    if task == "bands":
        block = dict(resolved.get("bands", {}))
        block.setdefault("gammas", [resolved["reservoir"]["gamma"]])
        block.setdefault("k_points", 1001)
        resolved["bands"] = block
    scenario = Scenario(resolved, name)
    if task == "sweep":
        blk = resolved["sweep"]
        grid = (f"sweep from gamma_start {blk['gamma_start']} to gamma_stop "
                f"{blk['gamma_stop']} in steps of {blk['gamma_step']}")
        # the length of ``sweep_grid``, known before it is built; the task
        # holds a (points, N) complex array of eigenvalues, which may be no
        # larger than the largest dense matrix (``DENSE_MAX_SITES``)
        count = (blk["gamma_stop"] + 0.5 * blk["gamma_step"]
                 - blk["gamma_start"]) / blk["gamma_step"]
        n_sites = resolved["system"]["n"] + resolved["reservoir"]["n"]
        if count * n_sites > DENSE_MAX_SITES ** 2:
            raise ScenarioError(
                f"{grid} has {count:.3g} points; at {n_sites} sites that "
                f"exceeds the {DENSE_MAX_SITES ** 2} eigenvalues a sweep may "
                f"hold")
        if (points := len(scenario.sweep_grid())) < 2:
            raise ScenarioError(
                f"{grid} has {points} point(s); tracking needs at least two")
    return scenario
