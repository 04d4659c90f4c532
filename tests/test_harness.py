import pytest

from conftest import example_text
from oracles import tree_size
from treelens import lens, parse_tree, verify_laws
from treelens.harness import corrupt_links, gen_script, gen_tree
from treelens.schema import check_tree_type


def test_gen_tree_respects_bound_and_types(arith):
    for seed in range(300):
        t = gen_tree(arith.schema, "Expr", 40, seed)
        assert tree_size(t) <= 40
        check_tree_type(arith.schema, "Expr", t)


def test_gen_tree_minimal_budget_forces_minimal_shape(arith):
    # Expr needs at least five nodes: FromT "" (Lit "" k) is the only shape.
    for seed in range(50):
        t = gen_tree(arith.schema, "Expr", 5, seed)
        assert t.ctor == "FromT"
        assert t.children[1].ctor == "Lit"
        assert tree_size(t) == 5


def test_gen_tree_deterministic(arith):
    assert gen_tree(arith.schema, "Expr", 40, 123) == gen_tree(arith.schema, "Expr", 40, 123)
    assert gen_tree(arith.schema, "Expr", 40, 1) != gen_tree(arith.schema, "Expr", 40, 2)


def test_gen_script_empty_and_valid(arith, arith_expr):
    from treelens.edits import EditContext, EditState, apply_script

    v, ls = arith_expr.get(gen_tree(arith.schema, "Expr", 30, 5))
    assert gen_script(arith.schema, "Arith", v, 0, 9) == []
    ctx = EditContext(arith.schema, "Arith")
    for seed in range(120):
        v0, ls0 = arith_expr.get(gen_tree(arith.schema, "Expr", 30, seed))
        ops = gen_script(arith.schema, "Arith", v0, 1 + seed % 5, seed)
        apply_script(EditState(v0, ls0), ops, ctx)  # must not raise


def test_gen_script_covers_all_op_kinds(addrbook):
    h = lens(addrbook, "AddrBook", "SocialBook")
    book = parse_tree(example_text("addrbook.tree").strip())
    v, _ = h.get(book)
    kinds = set()
    for seed in range(200):
        for op in gen_script(addrbook.schema, "SocialBook", v, 4, seed):
            kinds.add(type(op).__name__)
    assert kinds == {"Replace", "Copy", "Move", "Swap", "Insert", "Delete"}


def test_verify_laws_arith_clean(arith_expr):
    summary = verify_laws(arith_expr, 120, size_bound=30, script_len=4, seed=3)
    assert summary.ok, summary.to_text()
    assert summary.counts["hippocratic"] == [120, 120]
    assert summary.accepted + summary.rejected == 120


def test_verify_laws_deterministic(arith_expr):
    a = verify_laws(arith_expr, 40, size_bound=25, script_len=3, seed=17)
    b = verify_laws(arith_expr, 40, size_bound=25, script_len=3, seed=17)
    assert a.to_json() == b.to_json()


def test_corrupt_links_always_rejected(arith, arith_expr):
    from treelens.engine import InvalidLinks

    for seed in range(60):
        s = gen_tree(arith.schema, "Expr", 25, seed)
        v, ls = arith_expr.get(s)
        bad = corrupt_links(ls, seed)
        assert not arith_expr.check(s, v, bad)
        with pytest.raises(InvalidLinks):
            arith_expr.put(s, v, bad)


def test_failure_reporting_carries_minimized_counterexample(arith):
    # A deliberately broken lens: drop all links after get so Retentiveness
    # fails; the harness must report and minimize rather than crash.
    h = lens(arith, "Expr", "Arith")

    class Lying:
        source_type = h.source_type
        view_type = h.view_type
        source_schema = h.source_schema
        view_schema = h.view_schema

        def get(self, s):
            return h.get(s)

        def check(self, s, v, ls):
            return h.check(s, v, frozenset())

        def put(self, s, v, ls):
            return h.put(s, v, frozenset())

    summary = verify_laws(Lying(), 25, size_bound=20, script_len=3, seed=2)
    assert not summary.ok
    assert summary.failures
    assert summary.failures[0].counterexample is not None


def test_put_iff_check_counterexample_is_the_shortest_prefix(arith):
    # A lens whose check rejects every view edit while its put accepts the
    # edits real check accepts: put-iff-check fails on rejected trials, and the
    # harness must minimize those too.
    from treelens import render_links
    from treelens.edits import EditContext, EditState, apply_script, render_script

    h = lens(arith, "Expr", "Arith")

    class Lying:
        source_type = h.source_type
        view_type = h.view_type
        source_schema = h.source_schema
        view_schema = h.view_schema

        def get(self, s):
            return h.get(s)

        def check(self, s, v, ls):
            return h.check(s, v, ls) and v == h.get(s)[0]

        def put(self, s, v, ls):
            return h.put(s, v, ls)

    lying = Lying()
    summary = verify_laws(lying, 30, size_bound=25, script_len=4, seed=8)
    assert summary.failures
    ctx = EditContext(arith.schema, "Arith")
    shortened = linked = 0
    for f in summary.failures:
        assert f.failed_laws() == ["put_iff_check"] and f.accepted is False
        s = gen_tree(arith.schema, "Expr", 25, f.seed)
        v, ls = h.get(s)
        ops = gen_script(arith.schema, "Arith", v, 1 + f.seed % 4, f.seed + 1)
        k = next(k for k in range(len(ops) + 1) if render_script(ops[:k]) == f.counterexample["script"])
        st = apply_script(EditState(v, ls), ops[:k], ctx)
        assert f.counterexample["links"] == render_links(st.links)
        for j in range(k):  # every shorter prefix leaves check and put agreeing
            sj = apply_script(EditState(v, ls), ops[:j], ctx)
            assert lying.check(s, sj.view, sj.links) == h.check(s, sj.view, sj.links)
        assert not lying.check(s, st.view, st.links) and h.check(s, st.view, st.links)
        shortened += k < len(ops)
        linked += bool(st.links)
    assert shortened and linked


def test_harness_does_not_mutate_inputs(arith, arith_expr):
    s = gen_tree(arith.schema, "Expr", 30, 77)
    snapshot = s
    verify_laws(arith_expr, 5, size_bound=20, script_len=2, seed=77)
    assert s == snapshot


def test_gen_script_does_not_typecheck_the_whole_view_per_op(addrbook, monkeypatch):
    # The generated ops keep the view well-typed, so only what an op puts in
    # is checked; the view gen_script is working on is never walked again.
    from treelens import edits, harness

    h = lens(addrbook, "AddrBook", "SocialBook")
    v, _ = h.get(parse_tree(example_text("addrbook.tree").strip()))
    current, walked = [], []
    real_positions, real_check = harness._typed_positions, edits.check_tree_type

    def positions(sch, ty, view):
        current.append(view)
        return real_positions(sch, ty, view)

    def check(sch, ty, t, *rest):
        walked.append(t)
        assert t is not current[-1], "an op type-checked the whole view"
        return real_check(sch, ty, t, *rest)

    monkeypatch.setattr(harness, "_typed_positions", positions)
    monkeypatch.setattr(edits, "check_tree_type", check)
    for seed in range(40):
        gen_script(addrbook.schema, "SocialBook", v, 5, seed)
    assert len(current) == 200 and walked
    assert max(tree_size(t) for t in walked) < tree_size(v)
