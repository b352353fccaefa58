"""The built-in scenario validator against jsonschema's draft 2020-12 one."""

import copy
import json
from importlib import resources

import pytest

from nhzm.scenario import (SCENARIO_SCHEMA, ScenarioError, _violations,
                           bundled_scenario_names, load_scenario)

jsonschema = pytest.importorskip("jsonschema")

# every property of the schema present, so every schema node is visited
FULL = {
    "description": "all keys",
    "task": "spectrum",
    "onsite": 0.0,
    "seed": 3,
    "system": {"n": 9, "tA": 1.0, "tB": 0.2, "gamma": 0.1},
    "reservoir": {"n": 10, "tA": 1.0, "tB": 1.0, "gamma": 2.0,
                  "onsite": 0.0},
    "coupling": 0.2,
    "sweep": {"gamma_start": 0.0, "gamma_stop": 1.0, "gamma_step": 0.5},
    "ensemble": {"sigma": 0.1, "n_realizations": 10, "periods": 5.0},
    "bands": {"gammas": [0.5, 2.0], "k_points": 11},
}

# values of the wrong type for each JSON type; 1.0 is an integer in draft
# 2020-12 and a bool is not a number
WRONG_TYPE = {
    "object": [[], 1, None],
    "array": [{}, 0.5],
    "string": [3, None],
    "number": ["0.5", True, None, [1.0]],
    "integer": [1.0, 2.5, True, "3"],
}

DELETE = object()


def patched(doc, patches):
    """A deep copy of doc with each (path, value) set, or deleted."""
    doc = copy.deepcopy(doc)
    for path, value in patches:
        if not path:
            doc = value
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return doc


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def schema_patches(schema, path=()):
    """(path, value) patches of FULL that probe each keyword of each node."""
    for key, rule in schema.items():
        if key == "type":
            yield from ((path, bad) for bad in WRONG_TYPE[rule])
        elif key == "enum":
            yield from ((path, bad) for bad in ("nonsense", True, rule))
        elif key == "minimum":
            yield from ((path, v) for v in (rule - 1, rule - 0.5, rule))
        elif key == "exclusiveMinimum":
            yield from ((path, v) for v in (rule, rule - 1, rule + 0.5))
        elif key == "required":
            yield from ((path + (name,), DELETE) for name in rule)
        elif key == "additionalProperties":
            yield path + ("extra",), 1
        elif key == "properties":
            for name, sub in rule.items():
                yield from schema_patches(sub, path + (name,))
        elif key == "items":
            for i in range(len(value_at(FULL, path))):
                yield from schema_patches(rule, path + (i,))
        elif key == "minItems":
            yield path, []


def corpus():
    bundled = [json.loads(resources.files("nhzm").joinpath(
        f"scenarios/{name}.json").read_text())
        for name in bundled_scenario_names()]
    singles = [[p] for p in schema_patches(SCENARIO_SCHEMA)]
    # two violations at once, to check which one is reported first
    pairs = [a + b for a, b in zip(singles, singles[7:] + singles[:7])]
    pairs += [a + b for a, b in zip(singles, reversed(singles))]
    docs = bundled + [FULL]
    for patches in singles + pairs:
        try:
            docs.append(patched(FULL, patches))
        except (KeyError, IndexError, TypeError):
            continue  # the second patch's parent was replaced by the first
    return docs


def location(path):
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                         for p in path)


def test_corpus_covers_every_keyword():
    docs = corpus()
    assert len(docs) > 200
    assert not list(_violations(SCENARIO_SCHEMA, FULL))


def test_accepts_and_rejects_as_jsonschema(tmp_path):
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    path = tmp_path / "scenario.json"
    rejected = 0
    for doc in corpus():
        errors = sorted(validator.iter_errors(doc),
                        key=lambda e: list(e.absolute_path))
        path.write_text(json.dumps(doc))
        try:
            load_scenario(str(path))
            message = None
        except ScenarioError as exc:
            message = str(exc)
        if errors:
            rejected += 1
            where = location(errors[0].absolute_path)
            assert message is not None, (doc, errors[0].message)
            assert message.startswith(f"schema violation at {where}: "), (
                doc, message, errors[0].message)
        else:
            assert message is None or "schema violation" not in message, (
                doc, message)
    assert rejected > 150


@pytest.mark.parametrize("schema", [
    {"type": "number", "maximum": 3},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "object", "properties": {"a": {"pattern": "x"}}},
], ids=["maximum", "additional-schema", "nested-pattern"])
def test_unknown_schema_keyword_raises(schema):
    with pytest.raises(NotImplementedError, match="not supported"):
        list(_violations(schema, {"a": "y"} if "properties" in schema else 1))
