"""Every definition in the package has a caller outside the tests, and
the fast layer does not import the oracle.

The match is by name, anywhere in ``src`` (``__init__.py`` aside),
``tools`` or ``perfbench``.  A top-level function or class counts as
reached when its name occurs as a ``Name``, an ``Attribute`` or an import
alias.  A non-dunder method counts only through an ``Attribute`` access,
an import alias or an entry of ``perfbench/tracer.py``'s ``TARGETS``: a
local variable that shares its name does not reach it.  So the test can
miss a dead method that shares a live attribute name, but it cannot flag
live code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in sorted((ROOT / "src" / "ringspectra").glob("*.py"))
           if p.name != "__init__.py"]

EXEMPT = {
    "oracle": "brute-force references, whose callers are tests by design",
    "algebras.ideal_closure":
        "acceptance criterion 9 builds ideals with it; the oracle's closure "
        "applies every basis multiplication instead",
}


def _definitions(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}"
        if isinstance(node, ast.ClassDef):
            yield from (f"{path.stem}.{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__"))


def _traced_methods():
    """The method names ``perfbench/tracer.py`` wraps, read off its TARGETS."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    return {attr.rsplit(".", 1)[-1] for _mod, attr, *_ in targets if "." in attr}


def _referenced_names():
    """(names, attributes): every referenced name, and those referenced as
    an attribute, an import alias or a traced method."""
    paths = MODULES + sorted((ROOT / "tools").rglob("*.py")) \
        + sorted((ROOT / "perfbench").rglob("*.py"))
    names, attributes = set(), _traced_methods()
    for node in (n for p in paths for n in ast.walk(ast.parse(p.read_text()))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            attributes.add(node.name.rsplit(".", 1)[-1])
    return names | attributes, attributes


def test_every_definition_has_a_caller_outside_the_tests():
    defined = [d for p in MODULES for d in _definitions(p)]
    assert set(EXEMPT) <= set(defined) | {p.stem for p in MODULES}
    names, attributes = _referenced_names()
    unreached = [d for d in defined
                 if d.rsplit(".", 1)[-1] not in
                 (attributes if d.count(".") == 2 else names)
                 and d not in EXEMPT and d.split(".", 1)[0] not in EXEMPT]
    assert unreached == []


# The package modules that may import the brute-force oracle: the CLI runs
# it for ``verify --exhaustive``.  ``__init__``, which re-exports it, is not
# in MODULES.
ORACLE_IMPORTERS = {"oracle", "cli"}


def _imports_oracle(node):
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "oracle" or \
            any(a.name == "oracle" for a in node.names)
    return isinstance(node, ast.Import) and \
        any(a.name.split(".")[-1] == "oracle" for a in node.names)


def test_only_the_cli_and_the_package_root_import_the_oracle():
    """Checked on every import statement, those inside functions too."""
    importers = {p.stem for p in MODULES
                 if any(_imports_oracle(node)
                        for node in ast.walk(ast.parse(p.read_text())))}
    assert importers <= ORACLE_IMPORTERS
