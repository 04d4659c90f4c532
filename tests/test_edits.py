import pytest

from conftest import EXAMPLES, example_text
from oracles import MatchFailure, fill_wildcards, links_valid, tree_size
from treelens import (
    WILDCARD,
    IntLeaf,
    Link,
    Node,
    Region,
    StrLeaf,
    Var,
    fst_projection,
    lens,
    load_program,
    parse_pattern,
    parse_tree,
    render_pattern,
    sel,
)
from treelens.edits import (
    Copy,
    Delete,
    EditContext,
    EditError,
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
    _spine,
)
from treelens.engine import IllTypedInput
from treelens.harness import _list_elements, _typed_positions, gen_tree
from treelens.schema import type_at
from treelens.trees import PathOutOfRange


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


def test_untyped_list_ops_trust_the_spine_shape(addrbook):
    # `SocialGroup "g" Nil` is a one-cell spine by shape, so only a typing
    # context can tell that it is a group, not a list.
    st = EditState(parse_tree('SocialBook (Cons (SocialGroup "g" Nil) Nil)'), frozenset())
    out = insert(st, (0, 0), 0, parse_tree('"x"'))
    assert out.view == parse_tree('SocialBook (Cons (SocialGroup "x" (SocialGroup "g" Nil)) Nil)')
    with pytest.raises(IllTypedInput):
        insert(st, (0, 0), 0, parse_tree('"x"'), EditContext(addrbook.schema, "SocialBook"))


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


@pytest.mark.parametrize(
    "text,message",
    [
        ("   frob [0]\n", "1:4: unknown edit operation 'frob'"),
        ("swap [0] [1]\n\tfrob [0]\n", "2:2: unknown edit operation 'frob'"),
        ("  frob [0] #\n", "1:12: unexpected character '#'"),  # a stray character is reported first
    ],
)
def test_unknown_operation_names_its_own_column(text, message):
    from treelens.text import LensSyntaxError

    with pytest.raises(LensSyntaxError) as e:
        parse_script(text)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# insert/delete against the n-move expansion they replace

P_PROGRAM = (
    "data P a b = Pr a (P b a) | E\n"
    "P Int String <---> P Int String\n  E ~ E\n  Pr x xs ~ Pr x xs\n"
    "P String Int <---> P String Int\n  E ~ E\n  Pr x xs ~ Pr x xs\n"
)


def _cell(list_path, j):
    return list_path + (1,) * j + (0,)


def insert_by_moves(st, list_path, i, elem, ctx=None):
    """Reference: insert as one replace of the tail and n moves over the public ops."""
    cons, _nil, elems = _spine(st.view, list_path)
    n = len(elems)
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"insert at {i} in a list of length {n}")
    if cons is None:
        if ctx is None:
            raise NotAList("cannot infer the cell constructor of an empty list")
        ty = type_at(ctx.schema, ctx.view_type, st.view, list_path)
        if ctx.schema.list_cell(ty) is None:
            raise NotAList(f"type {ty} has no list cell constructor")
        cons = ctx.schema.list_cell(ty).name
    tail = sel(st.view, list_path + (1,) * n)
    st = replace(st, list_path + (1,) * n, Node(cons, (elem, tail)), ctx)
    for j in range(n - 1, i - 1, -1):
        st = move(st, _cell(list_path, j), _cell(list_path, j + 1), elem, ctx)
    return replace(st, _cell(list_path, i), elem, ctx)


def delete_by_moves(st, list_path, i, ctx=None):
    """Reference: delete as n moves and one replace of the last cell over the public ops."""
    n = len(_spine(st.view, list_path)[2])
    if not 0 <= i < n:
        raise IndexOutOfRange(f"delete at {i} in a list of length {n}")
    for j in range(i + 1, n):
        sub = sel(st.view, _cell(list_path, j))
        st = move(st, _cell(list_path, j), _cell(list_path, j - 1), sub, ctx)
    tail = sel(st.view, list_path + (1,) * n)
    return replace(st, list_path + (1,) * (n - 1), tail, ctx)


def _outcome(f, *args):
    try:
        out = f(*args)
    except (EditError, PathOutOfRange, IllTypedInput) as e:
        return type(e), str(e)
    return out.view, out.links


def _link_variants(view, links, spines):
    """get's links; the same with every wildcard filled from the view; plus stray links."""
    filled = set()
    for l in links:
        try:
            pattern = fill_wildcards(l.view.pattern, sel(view, l.view.path))
            filled.add(Link(l.source, Region(pattern, l.view.path)))
        except (PathOutOfRange, MatchFailure):
            filled.add(l)
    stray = set(links)
    src = Region(StrLeaf("stray"), ())
    cons_pat = Node("Cons", (WILDCARD, WILDCARD))
    for p, _ty, n in spines:
        for k, pat in ((n, Node("Nil", ())), (n + 1, WILDCARD), (max(n - 1, 0), cons_pat)):
            stray.add(Link(src, Region(pat, p + (1,) * k)))
        for k, suffix in ((0, (0, 1)), (n, (0,)), (n // 2, (0, 0, 2)), (n // 2, ())):
            stray.add(Link(src, Region(Var("x"), p + (1,) * k + suffix)))
    return [links, frozenset(filled), frozenset(stray)]


def _compare_list_ops(st, ctx, list_path, n, elems):
    for c in (None, ctx):
        for i in range(n + 2):
            for elem in elems:
                expected = _outcome(insert_by_moves, st, list_path, i, elem, c)
                assert _outcome(insert, st, list_path, i, elem, c) == expected, (list_path, i, elem, c)
            expected = _outcome(delete_by_moves, st, list_path, i, c)
            assert _outcome(delete, st, list_path, i, c) == expected, (list_path, i, c)


def _shipped_relations():
    for f in sorted(EXAMPLES.glob("*.lens")):
        vp = load_program(f.read_text(encoding="utf-8"), f.name)
        for r in vp.relations:
            yield vp, r.source_type, r.view_type


def test_list_ops_match_the_move_expansion_on_every_shipped_spine():
    compared = 0
    for vp, sty, vty in _shipped_relations():
        h = lens(vp, sty, vty)
        lists = _list_elements(vp.schema)
        ctx = EditContext(vp.schema, h.view_type)
        for seed in range(6):
            v, ls = h.get(gen_tree(vp.schema, h.source_type, 30, seed))
            spines = []
            for p, ty in _typed_positions(vp.schema, h.view_type, v):
                try:
                    spines.append((p, ty, len(_spine(v, p)[2])))
                except NotAList:  # e.g. Add cells ending in a Num
                    pass
            for links in _link_variants(v, ls, spines):
                for p, ty, n in spines:
                    elem = gen_tree(vp.schema, lists[ty], 6, seed) if ty in lists else IntLeaf(0)
                    elems = [elem, IntLeaf(7), StrLeaf("q")]
                    _compare_list_ops(EditState(v, links), ctx, p, n, elems)
                    compared += 1
    assert compared > 100


def test_list_ops_match_the_move_expansion_on_longer_lists(addrbook, books):
    h, book, st, ctx = books
    views = [(st, ctx), _group_view(addrbook, 9)]
    for st, ctx in views:
        lists = _list_elements(ctx.schema)
        spines = []
        for p, ty in _typed_positions(ctx.schema, ctx.view_type, st.view):
            if ty in lists:
                spines.append((p, ty, len(_spine(st.view, p)[2])))
        assert max(n for _, _, n in spines) >= 2
        for links in _link_variants(st.view, st.links, spines):
            for p, ty, n in spines:
                elem = gen_tree(ctx.schema, lists[ty], 8, n)
                _compare_list_ops(EditState(st.view, links), ctx, p, n, [elem, StrLeaf("q")])


def test_list_ops_match_the_move_expansion_where_cell_types_alternate():
    prog = load_program(P_PROGRAM, "p.lens")
    h = lens(prog, "P Int String", "P Int String")
    ctx = EditContext(prog.schema, h.view_type)
    for n in range(6):
        t = Node("E", ())
        for j in range(n - 1, -1, -1):
            t = Node("Pr", (IntLeaf(j) if j % 2 == 0 else StrLeaf(str(j)), t))
        v, ls = h.get(t)
        for links in (ls, frozenset()):
            _compare_list_ops(EditState(v, links), ctx, (), n, [IntLeaf(5), StrLeaf("s"), Node("E", ())])


def test_delete_reports_a_cell_type_change_along_the_spine():
    prog = load_program(P_PROGRAM, "p.lens")
    h = lens(prog, "P Int String", "P Int String")
    ctx = EditContext(prog.schema, h.view_type)
    v, ls = h.get(parse_tree('Pr 1 (Pr "a" E)'))
    with pytest.raises(EditScriptError) as e:
        apply_script(EditState(v, ls), parse_script("delete [] 0\n"), ctx)
    assert str(e.value.cause) == "cannot copy a String over a Int"
    out = delete(EditState(v, ls), (), 0)  # untyped, the shift goes through
    assert out.view == parse_tree('Pr "a" E')


# ---------------------------------------------------------------------------
# Work: one relink per list op


def _group_view(addrbook, n):
    h = lens(addrbook, "AddrGroup", "SocialGroup")
    spine = Node("Nil", ())
    for j in range(n - 1, -1, -1):
        person = Node("Person", (Node("Triple", (StrLeaf(f"p{j}"), StrLeaf("e"), StrLeaf("t"))),))
        spine = Node("Cons", (person, spine))
    v, ls = h.get(Node("AddrGroup", (StrLeaf("g"), spine)))
    return EditState(v, ls), EditContext(addrbook.schema, "SocialGroup")


@pytest.mark.parametrize("n", [50, 100, 200])
def test_head_insert_relinks_once_and_builds_only_the_moved_links(addrbook, monkeypatch, n):
    from treelens import edits

    st, ctx = _group_view(addrbook, n)
    under_a_cell = [l for l in st.links if l.view.path[:1] == (1,) and 0 in l.view.path[1:]]
    assert len(under_a_cell) == 2 * n  # the Person and Triple links of each name
    calls = {"relink": 0, "links": 0}
    real_relink, real_link = edits._relink, edits.Link

    def relink(*args, **kwargs):
        calls["relink"] += 1
        return real_relink(*args, **kwargs)

    def link(*args):
        calls["links"] += 1
        return real_link(*args)

    def banned(*args, **kwargs):
        raise AssertionError("a list op expanded into the core ops")

    monkeypatch.setattr(edits, "_relink", relink)
    monkeypatch.setattr(edits, "Link", link)
    for name in ("move", "copy", "replace"):
        monkeypatch.setattr(edits, name, banned)
    out = edits.insert(st, (1,), 0, StrLeaf("new"), ctx)
    assert calls == {"relink": 1, "links": len(under_a_cell)}
    assert len(out.links) == len(st.links) - 1  # only the Nil link died
    calls["relink"] = calls["links"] = 0
    edits.delete(out, (1,), 0, ctx)
    assert calls == {"relink": 1, "links": len(under_a_cell)}


# ---------------------------------------------------------------------------
# Long lists: no recursion per path index


def test_edits_on_a_2000_element_list(addrbook):
    n = 2000
    spine = Node("Nil", ())
    for j in range(n - 1, -1, -1):
        spine = Node("Cons", (StrLeaf(f"n{j}"), spine))
    view = Node("SocialGroup", (StrLeaf("g"), spine))
    marked = (0, 1499, 1500, 1998, 1999)
    links = frozenset(
        Link(Region(StrLeaf(f"s{j}"), (j,)), Region(StrLeaf(f"n{j}"), _cell((1,), j))) for j in marked
    )
    st = EditState(view, links)
    ctx = EditContext(addrbook.schema, "SocialGroup")

    def at(state, j):
        return sel(state.view, _cell((1,), j))

    def path_of(state, j):
        (l,) = [l for l in state.links if l.source.pattern == StrLeaf(f"s{j}")]
        return l.view.path

    out = swap(st, _cell((1,), 1500), _cell((1,), 1999), ctx)
    assert at(out, 1500) == StrLeaf("n1999") and at(out, 1999) == StrLeaf("n1500")
    assert path_of(out, 1999) == _cell((1,), 1500) and path_of(out, 1500) == _cell((1,), 1999)

    out = replace(st, _cell((1,), 1999), StrLeaf("x"), ctx)
    assert at(out, 1999) == StrLeaf("x") and at(out, 1998) == StrLeaf("n1998")
    assert len(out.links) == len(links) - 1

    for c in (None, ctx):
        out = insert(st, (1,), 1500, StrLeaf("x"), c)
        assert len(_spine(out.view, (1,))[2]) == n + 1
        assert at(out, 1500) == StrLeaf("x") and at(out, 2000) == StrLeaf("n1999")
        assert [path_of(out, j) for j in marked] == [_cell((1,), j) for j in (0, 1499, 1501, 1999, 2000)]

        out = delete(st, (1,), 1500, c)
        assert len(_spine(out.view, (1,))[2]) == n - 1
        assert at(out, 1500) == StrLeaf("n1501") and at(out, 1998) == StrLeaf("n1999")
        assert len(out.links) == len(links) - 1
        kept = (0, 1499, 1998, 1999)
        assert [path_of(out, j) for j in kept] == [_cell((1,), j) for j in (0, 1499, 1997, 1998)]


# ---------------------------------------------------------------------------
# The op table


def test_apply_op_calls_the_edit_functions_through_the_module(books, monkeypatch):
    from treelens import edits

    h, book, st, ctx = books
    seen = []
    for name in ("replace", "copy", "move", "swap", "insert", "delete"):
        real = getattr(edits, name)
        monkeypatch.setattr(edits, name, lambda *a, _n=name, _f=real: seen.append(_n) or _f(*a))
    ops = parse_script(
        'replace [0,0,0] ("x")\ncopy [0,0,0] [0,1,0,0]\nmove [0,0,0] [0,1,0,0] ("y")\n'
        "swap [0,0] [0,1,0]\ninsert [0,0,1] 0 (\"z\")\ndelete [0,0,1] 0\n"
    )
    apply_script(st, ops, ctx)
    assert seen == ["replace", "copy", "move", "copy", "replace", "swap", "insert", "delete"]
