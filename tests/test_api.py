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
