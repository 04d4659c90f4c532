"""Typing during the lens walks, against typing every input first.

A lens's walks type as they match: get types nothing up front, and put and
check type only the source first (``treelens.engine``).  The reference here
is the boundary that typed every input first: the source for get, the view
and then the source for put and check, each through ``check_tree_type``,
and only then the lens's core.  On single-node mutants of generated sources
and of their views, both must report the same thing: the same exception
with the same text, the same failure, or the same tree.
"""

import sys

import pytest

from conftest import example_text, subtrees
from oracles import tree_size
from test_programs import RELATIONS
from treelens import WILDCARD, IntLeaf, Lens, Node, StrLeaf, Var, lens, load_program
from treelens.edits import EditContext, EditState, Move, Swap, _replace_at, apply_script
from treelens.engine import CheckFailure, IllTypedInput, InvalidLinks
from treelens.harness import _typed_positions, gen_tree
from treelens.schema import IllTyped, check_tree_type, default_value


class _TypedFirst(Lens):
    """The lens ``inner`` behind a boundary that types every input before its walk."""

    def __init__(self, inner: Lens):
        self.inner = inner
        self.source_type, self.view_type = inner.source_type, inner.view_type
        self.source_schema, self.view_schema = inner.source_schema, inner.view_schema

    def get(self, s):
        try:
            check_tree_type(self.source_schema, self.source_type, s)
        except IllTyped as e:
            raise IllTypedInput(f"source: {e}") from e
        return self.inner._get(s)

    def try_put(self, s, v, ls):
        for side, sch, ty, t in (
            ("view", self.view_schema, self.view_type, v),
            ("source", self.source_schema, self.source_type, s),
        ):
            try:
                check_tree_type(sch, ty, t)
            except IllTyped as e:
                return CheckFailure(f"E-ill-typed-{side}", str(e), ())
        return self.inner._try_put(s, v, ls)


def _outcome(f, *args):
    try:
        out = f(*args)
    except (IllTypedInput, InvalidLinks) as e:
        return type(e).__name__, str(e)
    if isinstance(out, CheckFailure):
        return out.code, out.view_path, out.message, out.link
    return "ok", out


def _mutants(sch, ty, t):
    """``t`` with one node replaced, at every position, by each of the kinds below.

    An ``Int`` leaf and a ``String`` leaf trade kinds; a node loses its last
    child or gains one; a node becomes a constructor of the same name and
    arity from another type (``Cons`` of ``List Person`` where a ``List
    AddrGroup`` goes), or the first constructor of another type that its own
    type lacks; a wildcard or a variable takes a node's place.
    """
    for p, pty in _typed_positions(sch, ty, t):
        u = next(sub for q, sub in subtrees(t) if q == p)
        subs = [WILDCARD, Var("x")]
        if isinstance(u, IntLeaf):
            subs.append(StrLeaf(str(u.value)))
        elif isinstance(u, StrLeaf):
            subs.append(IntLeaf(len(u.value)))
        else:
            subs += [Node(u.ctor, u.children[:-1]), Node(u.ctor, u.children + (IntLeaf(0),))]
            for other, ctors in sch.types.items():
                c = next((c for c in ctors if c.name == u.ctor and len(c.arg_types) == len(u.children)), None)
                if other != pty and c is not None:
                    subs.append(Node(c.name, tuple(default_value(sch, a) for a in c.arg_types)))
        own = {c.name for c in sch.types.get(pty, ())}
        others = (c for other, ctors in sch.types.items() if other != pty for c in ctors)
        foreign = next((c for c in others if c.name not in own), None)
        if foreign is not None and all(a in sch.min_sizes() for a in foreign.arg_types):
            subs.append(Node(foreign.name, tuple(default_value(sch, a) for a in foreign.arg_types)))
        for sub in subs:
            yield _replace_at(t, p, sub)


def _ill_typed(sch, ty, t) -> bool:
    try:
        check_tree_type(sch, ty, t)
    except IllTyped:
        return True
    return False


def test_walks_report_what_typing_first_reports():
    ill = {"source": 0, "view": 0}
    for name, sty, vty in RELATIONS:
        vp = load_program(example_text(name), name)
        h = lens(vp, sty, vty)
        ref = _TypedFirst(h)
        sch = vp.schema
        for seed in range(6):
            s = gen_tree(sch, h.source_type, 20, seed)
            v, ls = h.get(s)
            for s2 in _mutants(sch, h.source_type, s):
                ill["source"] += _ill_typed(sch, h.source_type, s2)
                assert _outcome(h.get, s2) == _outcome(ref.get, s2), (name, s2)
                for f, g in ((h.check_explain, ref.check_explain), (h.put, ref.put)):
                    assert _outcome(f, s2, v, ls) == _outcome(g, s2, v, ls), (name, s2)
            for v2 in _mutants(sch, h.view_type, v):
                ill["view"] += _ill_typed(sch, h.view_type, v2)
                for f, g in ((h.check_explain, ref.check_explain), (h.put, ref.put)):
                    assert _outcome(f, s, v2, ls) == _outcome(g, s, v2, ls), (name, v2)
                    assert _outcome(f, s, v2, frozenset()) == _outcome(g, s, v2, frozenset()), (name, v2)
    assert ill == {"source": 1523, "view": 1018}, ill  # of the mutants, those ill-typed


@pytest.mark.parametrize(
    "name,sty,vty,view",
    [
        # Bare rules reach every view node: walked untyped, these views end in
        # E-sugar-cycle.  The foreign constructor is a type error all the same.
        ("arith.lens", "Expr", "Arith", 'Add (Num 1) (Lit "" 2)'),
        ("arith.lens", "Term", "Arith", "Plus"),
        ("sugar_chain.lens", "P", "V", "PZ"),
    ],
)
def test_a_constructor_the_view_type_lacks_is_a_type_error(name, sty, vty, view):
    from treelens import parse_tree

    vp = load_program(example_text(name), name)
    h = lens(vp, sty, vty)
    s = gen_tree(vp.schema, sty, 10, 0)
    f = h.check_explain(s, parse_tree(view), frozenset())
    assert f.code == "E-ill-typed-view" and f.view_path == ()
    assert _outcome(h.put, s, parse_tree(view), frozenset()) == _outcome(
        _TypedFirst(h).put, s, parse_tree(view), frozenset()
    )


def _count_typing_visits(monkeypatch) -> list[int]:
    """Wrap every binding of ``check_tree_type`` in the package; each walk adds its tree's size."""
    visits: list[int] = []

    def counted(sch, ty, t, *rest):
        visits.append(tree_size(t))
        return check_tree_type(sch, ty, t, *rest)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("treelens") and hasattr(mod, "check_tree_type"):
            monkeypatch.setattr(mod, "check_tree_type", counted)
    return visits


def test_typing_visits_per_sugarlang_law_trial(sugarlang, monkeypatch):
    # The benchmark's law trial: get, check, put of get's own output, an
    # edit of the view with a typing context (a swap or a move of methods
    # between classes), check and put of the edited view, and get of the
    # new source.  Typing every input at the boundary, and a move's filler
    # twice, made 24 walks over 258 nodes on these two trials.
    h = lens(sugarlang, "SProg", "AProg")
    ctx = EditContext(sugarlang.schema, h.view_type)
    trials = [
        (gen_tree(sugarlang.schema, "SProg", 40, 3), Swap((0, 1), (2, 1))),
        (gen_tree(sugarlang.schema, "SProg", 40, 4), Move((1, 1), (0, 1), Node("ANoMethod"))),
    ]
    visits = _count_typing_visits(monkeypatch)
    for s, op in trials:
        v, ls = h.get(s)
        assert h.check(s, v, ls) and h.put(s, v, ls) == s
        st = apply_script(EditState(v, ls), [op], ctx)
        assert h.check(s, st.view, st.links)
        s2 = h.put(s, st.view, st.links)
        assert h.get(s2)[0] == st.view
    # Per trial: the source of each check and put, and the view the edit
    # types; the move also types its filler.
    assert visits == [13, 13, 10, 13, 13] + [13, 13, 10, 1, 13, 13], visits
