import ast
import importlib
from pathlib import Path

import pytest

import nhzm


def test_every_exported_name_resolves():
    # one table lists each module's exports and gives both __all__ and the
    # lazy lookup; a name deleted from a module but left in the table, or
    # listed under the wrong module, must fail here
    names = [name for name in nhzm.__all__ if name != "__version__"]
    wrong = [name for name in names if getattr(nhzm, name) is not getattr(
        importlib.import_module(f"nhzm.{nhzm._MODULE_OF[name]}"), name)]
    assert wrong == []
    assert len(set(nhzm.__all__)) == len(nhzm.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        nhzm.no_such_name


def test_dir_lists_every_export():
    assert set(nhzm.__all__) <= set(dir(nhzm))


def source_trees() -> dict[str, ast.Module]:
    """The syntax tree of each nhzm module, by file name."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(Path(nhzm.__file__).parent.glob("*.py"))}


def public_definitions(tree: ast.Module):
    """Public top-level functions, classes and constants of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def references(tree: ast.Module):
    """Every name a module reads, looks up as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_is_exported_or_used():
    # a public name that neither the package exports nor src/ reads is
    # dead code, e.g. a helper left behind when its last caller went
    trees = source_trees()
    used = {name for tree in trees.values() for name in references(tree)}
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in public_definitions(tree)
            if name not in nhzm.__all__ and name not in used]
    assert dead == []


def public_methods(tree: ast.Module):
    """(class, name) of each public method or property of one module's
    top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def test_every_public_method_is_referenced():
    # a method or property that nothing in src/ or tests/ reads is dead
    # code that no test pins
    src = source_trees()
    tests = [ast.parse(path.read_text())
             for path in sorted(Path(__file__).parent.glob("*.py"))]
    used = {name for tree in [*src.values(), *tests]
            for name in references(tree)}
    dead = [f"{module}:{cls}.{name}" for module, tree in src.items()
            for cls, name in public_methods(tree) if name not in used]
    assert dead == []


def test_cli_imports_no_private_name():
    # the CLI composes the layers' public functions only, so each task is
    # something a library user can do too
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(source_trees()["cli.py"])
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("nhzm"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def nhzm_imports(tree: ast.Module, typing_too: bool = False) -> set[str]:
    """The nhzm modules one module imports, at any depth, and under
    ``if TYPE_CHECKING:`` only with ``typing_too``."""
    skip = set() if typing_too else {
        id(node) for block in ast.walk(tree) if isinstance(block, ast.If)
        and isinstance(block.test, ast.Name)
        and block.test.id == "TYPE_CHECKING"
        for stmt in block.body for node in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "nhzm" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            names = [base] if base != "nhzm" else \
                [f"nhzm.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("nhzm."))
    return found


def test_spectral_and_localization_do_not_import_each_other():
    # the zero-mode stage computes spectra and zero modes only; the
    # recurrence quantities of a mode's tail are the report's
    trees = source_trees()
    assert nhzm_imports(trees["spectral.py"], typing_too=True) & {
        "localization", "dynamics", "perturbation", "bands", "cli"} == set()
    assert "spectral" in nhzm_imports(trees["localization.py"],
                                      typing_too=True)
    assert "spectral" not in nhzm_imports(trees["localization.py"])
