import ast
from pathlib import Path

import nhzm


def test_every_exported_name_resolves():
    # __all__ and the imports above it are kept by hand; a name deleted
    # from a module but left in the list must fail here
    missing = [name for name in nhzm.__all__ if not hasattr(nhzm, name)]
    assert missing == []
    assert len(set(nhzm.__all__)) == len(nhzm.__all__)


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
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(nhzm.__file__).parent.glob("*.py"))}
    used = {name for tree in trees.values() for name in references(tree)}
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in public_definitions(tree)
            if name not in nhzm.__all__ and name not in used]
    assert dead == []
