"""Rules about the shape of the source tree, checked on its syntax trees."""

import ast
import pathlib

import rdpdescent

SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(pathlib.Path(rdpdescent.__file__).parent.glob("*.py"))}

#: The truncation oracle: independent of the engine by construction.
ORACLE = ("_Echelon", "_OracleRun", "_oracle_run", "_monomials_by_degree",
          "truncation_length_oracle", "truncation_contains")


def _private_definitions(node, prefix):
    """(qualified name, definition) of every private function and class
    below node; dunder methods are not private."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if child.name.startswith("_") and not child.name.endswith("__"):
                yield name, child
            yield from _private_definitions(child, name)
        else:
            yield from _private_definitions(child, prefix)


def _loaded_names(tree):
    """Every name that code in tree reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_private_helper_is_used():
    loaded = set().union(*map(_loaded_names, SOURCES.values()))
    dead = [name for module, tree in SOURCES.items()
            for name, node in _private_definitions(tree, module) if node.name not in loaded]
    assert dead == []


def test_the_truncation_oracle_loads_nothing_from_the_engine():
    tree = SOURCES["ideals"]
    engine = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "gbasis":
                engine.update(alias.asname or alias.name for alias in node.names)
            elif node.module is None:
                engine.update(alias.asname or alias.name for alias in node.names
                              if alias.name == "gbasis")
    assert "complete_basis" in engine
    defined = {node.name: node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in ORACLE:
        used = sorted(_loaded_names(defined[name]) & engine)
        assert used == [], f"{name} loads {used} from gbasis"
