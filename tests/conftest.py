from __future__ import annotations

from pathlib import Path

import pytest

import treelens
from treelens import Node, Wildcard, check_tree_type, default_value, lens, load_program, parse_tree

EXAMPLES = Path(__file__).resolve().parent.parent / "lens_examples"


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src first on sys.path, so a copy's
    # tests must be run from inside the copy; the header shows which one runs.
    return f"treelens under test: {Path(treelens.__file__).parent}"


def example_text(name: str) -> str:
    return (EXAMPLES / name).read_text(encoding="utf-8")


def subtrees(t):
    """Every (path, subtree) pair of ``t`` in preorder."""
    stack = [((), t)]
    while stack:
        path, cur = stack.pop()
        yield path, cur
        if isinstance(cur, Node):
            for i in range(len(cur.children) - 1, -1, -1):
                stack.append((path + (i,), cur.children[i]))


def defaulted(sch, ty, pattern):
    """``pattern`` with each wildcard set to ``default_value`` of its hole type.

    The reference for a rebuilt core: ``reconstruct`` of it is what a rule's
    ``build_source`` over its ``defaults`` must give.
    """
    holes: dict = {}
    check_tree_type(sch, ty, pattern, holes)

    def walk(q, path):
        if isinstance(q, Wildcard):
            return default_value(sch, holes[path])
        if isinstance(q, Node):
            return Node(q.ctor, tuple(walk(c, path + (i,)) for i, c in enumerate(q.children)))
        return q

    return walk(pattern, ())


@pytest.fixture(scope="session")
def arith():
    return load_program(example_text("arith.lens"), "arith.lens")


@pytest.fixture(scope="session")
def arith_expr(arith):
    return lens(arith, "Expr", "Arith")


@pytest.fixture(scope="session")
def arith_term(arith):
    return lens(arith, "Term", "Arith")


@pytest.fixture(scope="session")
def demo_cst():
    return parse_tree(
        'Plus "a plus" (Minus "a minus" (FromT "" (Lit "l1" 1)) (Lit "l2" 2)) '
        '(Neg "a neg" (Lit "l3" 3))'
    )


@pytest.fixture(scope="session")
def sugarlang():
    return load_program(example_text("sugarlang.lens"), "sugarlang.lens")


@pytest.fixture(scope="session")
def addrbook():
    return load_program(example_text("addrbook.lens"), "addrbook.lens")


@pytest.fixture(scope="session")
def mirror():
    return load_program(example_text("mirror.lens"), "mirror.lens")
