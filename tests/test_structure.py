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


def _imports(module):
    """{sibling module: the names taken from it} for every relative import
    in module's source; `from . import m` takes "*" from m."""
    taken = {}
    for node in ast.walk(SOURCES[module]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                sibling, name = (node.module, alias.name) if node.module else (alias.name, "*")
                taken.setdefault(sibling, set()).add(name)
    return taken


def test_the_truncation_oracle_and_the_engine_share_no_code():
    # The oracle is the engine's independent check, so neither route may
    # load the other's code; ideals takes only the oracle's answers.
    reached, todo = set(), ["oracle"]
    while todo:
        new = set(_imports(todo.pop())) - reached
        reached |= new
        todo += new
    assert sorted(reached & {"gbasis", "ideals", "criteria"}) == []
    assert "oracle" not in _imports("gbasis")
    assert "oracle" not in _imports("criteria")
    assert _imports("ideals")["oracle"] == {"UNSTABLE", "truncation_length_oracle"}


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


def test_the_completion_cuts_its_elements_only_on_return():
    # complete_basis stores each element once, uncut; _reduce cuts the
    # multiples it adds, and only _minimalize cuts whole elements.
    assert list(_reads_of(SOURCES["gbasis"], "_cut_at")) == ["_minimalize"]
