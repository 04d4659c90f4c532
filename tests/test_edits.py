import pytest

from conftest import example_text
from treelens import (
    Link,
    Region,
    fst_projection,
    lens,
    links_valid,
    parse_pattern,
    parse_tree,
    render_pattern,
)
from treelens.edits import (
    Copy,
    Delete,
    EditContext,
    EditScriptError,
    EditState,
    Insert,
    IndexOutOfRange,
    Move,
    NotAList,
    OverlappingPaths,
    Replace,
    Swap,
    apply_script,
    copy,
    delete,
    insert,
    move,
    parse_script,
    render_script,
    replace,
    swap,
)
from treelens.engine import IllTypedInput


def _state(h, s):
    v, ls = h.get(s)
    return EditState(v, ls)


def test_replace_destroys_links_under_path(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    out = replace(st, (1,), parse_tree("Num 3"))
    assert all(l.view.path[:1] != (1,) for l in out.links)
    assert out.view == parse_tree("Add (Sub (Num 1) (Num 2)) (Num 3)")


def test_replace_same_subtree_still_destroys(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    from treelens.trees import sel

    out = replace(st, (1,), sel(st.view, (1,)))
    assert out.view == st.view
    assert all(l.view.path[:1] != (1,) for l in out.links)


def test_replace_inside_wildcard_hole_keeps_enclosing(arith_term):
    s = parse_tree('Neg "a neg" (Lit "" 7)')
    st = _state(arith_term, s)  # root region Sub (Num 0) _, hole at [1]
    out = replace(st, (1,), parse_tree("Num 9"))
    assert Link(
        Region(parse_pattern('Neg "a neg" _'), ()),
        Region(parse_pattern("Sub (Num 0) _"), ()),
    ) in out.links


def test_replace_inside_region_content_destroys(arith_term):
    s = parse_tree('Neg "a neg" (Lit "" 7)')
    st = _state(arith_term, s)
    out = replace(st, (0,), parse_tree("Num 5"))  # hits the Num 0 content
    assert all(l.view.path != () for l in out.links)


def test_copy_duplicates_links(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    st = swap(st, (0,), (1,))  # negation region now at [0]
    out = copy(st, (0,), (1,))
    neg = parse_pattern('Neg "a neg" _')
    paths = sorted(l.view.path for l in out.links if l.source.pattern == neg)
    assert paths == [(0,), (1,)]


def test_copy_rejects_overlap(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    with pytest.raises(OverlappingPaths):
        copy(st, (0,), (0,))
    with pytest.raises(OverlappingPaths):
        copy(st, (0,), (0, 1))


def test_put_after_copy_retains_region_twice(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    st = swap(st, (0,), (1,))
    st = copy(st, (0,), (1,))
    s2 = arith_expr.put(demo_cst, st.view, st.links)
    _, ls2 = arith_expr.get(s2)
    assert fst_projection(st.links) <= fst_projection(ls2)
    assert render_pattern(s2).count('Neg "a neg"') == 2


def test_move_redirects_links(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    out = move(st, (1,), (0,), parse_tree("Num 0"))
    assert all(l.view.path[:1] != (1,) for l in out.links)
    # the moved subtree's links now live under [0]
    assert any(l.view.path[:1] == (0,) for l in out.links)


def test_move_ill_typed_filler(sugarlang):
    h = lens(sugarlang, "SProg", "AProg")
    cst = parse_tree(
        'SProg (SClass "" "A" (SMethod "" "m" SSkip)) (SClass "" "B" SNoMethod) '
        '(SClass "" "C" SNoMethod)'
    )
    st = _state(h, cst)
    ctx = EditContext(sugarlang.schema, "AProg")
    with pytest.raises(IllTypedInput):
        move(st, (0, 1), (1, 1), parse_tree("ASkip"), ctx)  # AStmt into an AMethod slot


def test_move_back_restores_prefixes(arith_expr, demo_cst):
    from treelens.trees import sel

    st = _state(arith_expr, demo_cst)
    filler = sel(st.view, (0,))
    there = move(st, (0,), (1,), filler)
    back = move(there, (1,), (0,), sel(there.view, (1,)))
    # links that lived under [0] are back at [0]; links under [1] died with
    # the overwritten subtree and stay dead
    survived = {l for l in st.links if l.view.path[:1] == (0,)}
    assert survived <= back.links
    assert all(l.view.path[:1] != (1,) for l in back.links)


def test_swap_is_involution(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    out = swap(swap(st, (0,), (1,)), (0,), (1,))
    assert out == st


def test_swap_same_path_rejected(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    with pytest.raises(OverlappingPaths):
        swap(st, (0,), (0,))


def test_swap_rewrites_negation_link(arith_expr, demo_cst):
    st = swap(_state(arith_expr, demo_cst), (0,), (1,))
    assert Link(
        Region(parse_pattern('Neg "a neg" _'), (2,)),
        Region(parse_pattern("Sub (Num 0) _"), (0,)),
    ) in st.links


def test_links_remain_valid_after_edits(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    st = swap(st, (0,), (1,))
    st = replace(st, (1, 0), parse_tree("Num 4"))
    st = copy(st, (0,), (1,))
    assert links_valid(demo_cst, st.view, st.links)


# ---------------------------------------------------------------------------
# List surgery


@pytest.fixture()
def books(addrbook):
    h = lens(addrbook, "AddrBook", "SocialBook")
    book = parse_tree(example_text("addrbook.tree").strip())
    v, ls = h.get(book)
    return h, book, EditState(v, ls), EditContext(addrbook.schema, h.view_type)


def test_insert_append_shifts_nothing(books):
    h, book, st, ctx = books
    before = st.links
    out = insert(st, (0,), 2, parse_tree('SocialGroup "family" Nil'), ctx)
    from treelens.trees import sel

    assert sel(out.view, (0, 1, 1, 0)) == parse_tree('SocialGroup "family" Nil')
    # no element link moved: only the Nil spine link died
    assert {l for l in before if l.view.path[: 1] == (0,)} - out.links == {
        l for l in before if l.view.pattern == parse_pattern("Nil") and l.view.path == (0, 1, 1)
    }


def test_delete_then_insert_restores_view_not_links(books):
    h, book, st, ctx = books
    elem = parse_tree('"Alice"')
    members = (0, 0, 1)
    out = delete(st, members, 0, ctx)
    out = insert(out, members, 0, elem, ctx)
    assert out.view == st.view
    assert out.links < st.links  # Alice's links are gone for good


def test_insert_and_delete_bounds(books):
    h, book, st, ctx = books
    with pytest.raises(IndexOutOfRange):
        insert(st, (0,), 5, parse_tree('SocialGroup "x" Nil'), ctx)
    with pytest.raises(IndexOutOfRange):
        delete(st, (0,), 2, ctx)


def test_not_a_list(books):
    h, book, st, ctx = books
    with pytest.raises(NotAList):
        insert(st, (0, 0), 0, parse_tree('"x"'), ctx)  # a SocialGroup, not a spine


def test_insert_into_empty_list_needs_context(addrbook):
    h = lens(addrbook, "AddrGroup", "SocialGroup")
    g = parse_tree('AddrGroup "g" Nil')
    v, ls = h.get(g)
    st = EditState(v, ls)
    with pytest.raises(NotAList):
        insert(st, (1,), 0, parse_tree('"Zoe"'))
    ctx = EditContext(addrbook.schema, "SocialGroup")
    out = insert(st, (1,), 0, parse_tree('"Zoe"'), ctx)
    assert out.view == parse_tree('SocialGroup "g" (Cons "Zoe" Nil)')


# ---------------------------------------------------------------------------
# Scripts


def test_apply_script_empty(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    assert apply_script(st, []) == st


def test_apply_script_single_swap(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    out = apply_script(st, [Swap((0,), (1,))])
    assert out == swap(st, (0,), (1,))


def test_script_error_carries_step(arith_expr, demo_cst):
    st = _state(arith_expr, demo_cst)
    with pytest.raises(EditScriptError) as e:
        apply_script(st, [Swap((0,), (1,)), Copy((0,), (0,))])
    assert e.value.step == 1


def test_script_text_roundtrip():
    text = (
        "replace [1] (Num 3)\n"
        "copy [0] [1]\n"
        "move [0,1] [1,0] (Num 0)\n"
        "swap [0] [1]\n"
        'insert [0] 2 (SocialGroup "family" Nil)\n'
        "delete [0,1] 0\n"
    )
    ops = parse_script(text)
    assert ops == [
        Replace((1,), parse_tree("Num 3")),
        Copy((0,), (1,)),
        Move((0, 1), (1, 0), parse_tree("Num 0")),
        Swap((0,), (1,)),
        Insert((0,), 2, parse_tree('SocialGroup "family" Nil')),
        Delete((0, 1), 0),
    ]
    assert render_script(ops) == text


def test_xml_scenario_script(addrbook, books):
    h, book, st, ctx = books
    ops = parse_script(example_text("addrbook_update.edits"))
    out = apply_script(st, ops, ctx)
    book2 = h.put(book, out.view, out.links)
    assert 'AddrGroup "friends" (Cons (Person (Triple "Alice" "alice@abc.xyz" "000111"))' in render_pattern(book2)
    v2, _ = h.get(book2)
    assert v2 == out.view


def test_random_scripts_stay_checkable(arith, arith_expr):
    # Empirical claim: constructive scripts on the arithmetic schema keep the
    # links inside put's domain in the overwhelming majority of trials.
    from treelens.harness import gen_script, gen_tree

    ctx = EditContext(arith.schema, "Arith")
    accepted = 0
    total = 300
    for seed in range(total):
        s = gen_tree(arith.schema, "Expr", 30, seed)
        v, ls = arith_expr.get(s)
        ops = gen_script(arith.schema, "Arith", v, 1 + seed % 5, seed)
        st = apply_script(EditState(v, ls), ops, ctx)
        assert links_valid(s, st.view, st.links)
        if arith_expr.check(s, st.view, st.links):
            accepted += 1
    assert accepted / total > 0.9


def test_type_at_walks_the_schema_along_the_path(books):
    from conftest import subtrees
    from treelens.edits import _replace_at, _type_at
    from treelens.schema import check_tree_type
    from treelens.trees import WILDCARD, PathOutOfRange

    h, book, st, ctx = books
    paths = [p for p, _ in subtrees(st.view)]
    assert len(paths) > 10
    for p in paths:
        # the whole-term walk types a hole at ``p`` as the path walk does
        holes = {}
        check_tree_type(ctx.schema, ctx.view_type, _replace_at(st.view, p, WILDCARD), holes)
        assert holes == {p: _type_at(ctx, st.view, p)}
    for p in [(1,), (0, 2), (0, 0, 0, 0), (0, -1)]:  # off the tree, and into a String
        with pytest.raises(PathOutOfRange):
            _type_at(ctx, st.view, p)


def test_typed_script_checks_the_whole_view_once(books, monkeypatch):
    from treelens import edits
    from treelens.trees import tree_size

    h, book, st, ctx = books
    sizes = []
    real = edits.check_tree_type

    def counted(sch, ty, t):
        sizes.append(tree_size(t))
        return real(sch, ty, t)

    monkeypatch.setattr(edits, "check_tree_type", counted)
    members = (0, 0, 1)
    ops = [Insert(members, 0, parse_tree('"Zoe"'))] * 3 + [Delete(members, 1)]
    out = apply_script(st, ops, ctx)
    assert out.view != st.view
    # once for the input view; every other call types a new name or cell
    assert sizes[0] == tree_size(st.view)
    assert len(sizes) > 4 and max(sizes[1:]) <= 3


def test_typed_script_rejects_an_ill_typed_input_view(books):
    h, book, st, ctx = books
    bad = EditState(parse_tree("SocialBook (Cons 5 Nil)"), frozenset())
    with pytest.raises(EditScriptError) as e:
        apply_script(bad, [Swap((0, 0), (0, 1))], ctx)
    assert e.value.step == 0 and isinstance(e.value.cause, IllTypedInput)


def test_typed_script_rejects_a_hole(books):
    from treelens import WILDCARD, Node, Var

    h, book, st, ctx = books
    holey = EditState(Node("SocialBook", (Var("groups"),)), frozenset())
    with pytest.raises(EditScriptError) as e:
        apply_script(holey, [Swap((0, 0), (0, 1))], ctx)
    assert e.value.step == 0 and isinstance(e.value.cause, IllTypedInput)
    assert str(e.value.cause) == "at [0]: expected List SocialGroup, found variable groups"
    with pytest.raises(EditScriptError) as e:
        apply_script(st, [Replace((0, 0, 0), WILDCARD)], ctx)
    assert str(e.value.cause) == "replacement at [0, 0, 0]: at []: expected String, found wildcard _"


def test_script_paths_accept_spacing():
    ops = parse_script("swap [0, 1] [ 1 ]\ndelete [] 0\n")
    assert ops == [Swap((0, 1), (1,)), Delete((), 0)]
