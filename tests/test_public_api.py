"""Every name a package exports resolves, every module uses what it
imports, and every module-level definition is named somewhere, so a
deletion cannot leave a stale entry in ``__all__``, a stale import or a
dead definition behind. Only ``simworld`` assigns the scene's fields."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from vialbench.simworld import SceneState


@pytest.mark.parametrize("package", ["vialbench", "vialbench.perception"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each module-level import of ``path`` whose
    bound name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in used]


def test_no_module_keeps_an_unused_import():
    """A deletion cannot leave its import behind (``__init__`` files
    import to export, so they are left out)."""
    package = Path(importlib.import_module("vialbench").__file__).parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def _names_used(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads, imports or lists in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.split(".")[-1] for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_module_keeps_a_dead_definition():
    """A module-level function or class that no module of the package
    names, imports or exports is dead: a deletion cannot leave one behind
    (``__init__`` files only re-export, so their own definitions are left
    out)."""
    package = Path(importlib.import_module("vialbench").__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.rglob("*.py"))}
    used = set().union(*map(_names_used, trees.values()))
    defined = [(path, node) for path, tree in trees.items()
               if path.name != "__init__.py" for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(defined) > 100
    assert [f"{path.name}:{node.lineno} {node.name}" for path, node in defined
            if node.name not in used] == []


def _targets(node: ast.AST):
    """The assignment targets of ``node``, tuples and lists unpacked."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def test_only_simworld_assigns_scene_fields():
    """``SceneState`` has one owner: no module but ``simworld`` assigns
    ``scene.<field>``. Assigning inside a field's value, such as the
    generator state under ``scene.rng``, is not assigning the field."""
    fields = {f.name for f in dataclasses.fields(SceneState)}
    package = Path(importlib.import_module("vialbench").__file__).parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "simworld.py")
    assert len(modules) > 10
    hits = [f"{path.name}:{target.lineno} scene.{target.attr}"
            for path in modules
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for target in _targets(node)
            if isinstance(target, ast.Attribute) and target.attr in fields
            and isinstance(target.value, ast.Name)
            and target.value.id == "scene"]
    assert hits == []
