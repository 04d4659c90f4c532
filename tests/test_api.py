import ast
from pathlib import Path
from types import ModuleType

import treelens


def test_star_import_binds_the_api_and_no_submodules():
    ns: dict = {}
    exec("from treelens import *", ns)
    ns.pop("__builtins__")
    assert set(ns) == set(treelens.__all__)
    assert not [n for n, v in ns.items() if isinstance(v, ModuleType)]
    for name in ("engine", "trees", "compose", "harness", "cli"):
        assert name not in ns
    for name in ("lens", "Lens", "LensHandle", "CompositeLens", "verify_laws", "parse_tree"):
        assert name in ns
    assert "divide" not in ns and "add_v_prefix" not in ns


ORACLES = {
    "decompose",
    "fill_wildcards",
    "reconstruct",
    "region_contains",
    "links_valid",
    "tree_size",
    "MatchFailure",
    "WildcardPresent",
    "UnboundVariable",
    "_wildish",
    "_covers",
    "covers_type",
    "patterns_overlap",
    "rebuild_by_bare_steps",
}


def test_no_module_of_the_package_references_the_test_oracles():
    # The generic helpers are the references the tests check compiled rules,
    # the engine, the edits and validation's matrix walk against
    # (tests/oracles.py), so no module under test may define or use them.
    pkg = Path(treelens.__file__).parent
    used = {}
    for module in sorted(pkg.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                names.add(node.asname or "")
        used[module.stem] = names & ORACLES
    assert {"engine", "plan", "trees"} <= used.keys()
    assert {m: n for m, n in used.items() if n} == {}
    oracles = Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
    defined = {
        node.name
        for node in ast.parse(oracles).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined == ORACLES
