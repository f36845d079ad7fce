"""Rules about the shape of the source tree, checked on its syntax trees."""

import ast
import pathlib

import rdpdescent

SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(pathlib.Path(rdpdescent.__file__).parent.glob("*.py"))}


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


def _names_read(node):
    """The bare names that code in node reads, outside type annotations."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _names_read(child)


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
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    # The oracle is what its two entry points reach through the module's
    # own definitions; none of those may read a name taken from gbasis.
    reached, todo = set(), ["truncation_length_oracle", "truncation_contains"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        read = set(_names_read(defined[name]))
        used = sorted(read & engine)
        assert used == [], f"{name} loads {used} from gbasis"
        todo.extend(read & defined.keys())
    assert {"_oracle_run", "_OracleRun", "_Echelon"} <= reached


def _decoding_reads(node, name, allowed):
    """(function, attribute) for each read of .lm, .terms or .mono below
    node, outside the functions named in allowed; name is node's own."""
    for child in ast.iter_child_nodes(node):
        inner = name
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{name}.{child.name}" if name else child.name
            if inner in allowed:
                continue
        elif isinstance(child, ast.Attribute) and child.attr in ("lm", "terms", "mono"):
            yield name, child.attr
        yield from _decoding_reads(child, inner, allowed)


def test_the_engine_decodes_monomials_only_where_it_returns_tuples():
    # gbasis works on packed keys and exponent records; only the two
    # readers that return exponent tuples decode a key.
    tree = SOURCES["gbasis"]
    allowed = {"StandardBasis.leading_monomials", "leading_ideal"}
    assert set(_decoding_reads(tree, "", set())) >= {("StandardBasis.leading_monomials", "lm")}
    assert sorted(set(_decoding_reads(tree, "", allowed))) == []


def _reads_of(tree, name, scope=""):
    """The scope, a qualified function name, of each read of the bare name
    below tree."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
            yield scope
        yield from _reads_of(child, name, inner)


def test_the_product_criterion_is_decided_in_one_place():
    # The pair update of complete_basis decides it, so a pair it skips is
    # never queued; the pop loop does not test it again.
    assert list(_reads_of(SOURCES["gbasis"], "_product_criterion")) == ["complete_basis.add"]
