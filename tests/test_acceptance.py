"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import pytest

from conftest import EXAMPLES, example_text
from treelens import (
    CompositeLens,
    Link,
    Region,
    lens,
    load_program,
    parse_links,
    parse_pattern,
    parse_program,
    parse_tree,
    render_links,
    render_program,
    render_pattern,
    validate_program,
    verify_laws,
)
from treelens.edits import EditContext, EditState, apply_script, parse_script, swap
from treelens.engine import InvalidLinks
from treelens.frontend import ValidationError
from treelens.harness import gen_tree
from treelens.text import read_tree_file, write_tree_file


def _report(n: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_hippocraticness(arith_expr):
    start = time.perf_counter()
    summary = verify_laws(arith_expr, 1000, size_bound=40, script_len=0, seed=0)
    elapsed = time.perf_counter() - start
    ok = summary.counts["hippocratic"] == [1000, 1000] and elapsed < 10.0
    _report(
        1,
        f"Hippocraticness 1000/1000 on arithmetic (size 40) in {elapsed:.2f}s < 10s",
        ok,
    )


@pytest.fixture(scope="module")
def edited_run(arith_expr):
    return verify_laws(arith_expr, 1000, size_bound=40, script_len=5, seed=1)


def test_criterion_2_correct_retentive(edited_run):
    s = edited_run
    total = s.accepted + s.rejected
    acc_rate = s.accepted / total
    ok = (
        acc_rate > 0.9
        and s.counts["correct"] == [s.accepted, s.accepted]
        and s.counts["retentive"] == [s.accepted, s.accepted]
    )
    _report(
        2,
        f"Correctness+Retentiveness exact on all {s.accepted} accepted trials "
        f"(acceptance {acc_rate:.1%} > 90%)",
        ok,
    )


def test_criterion_3_check_soundness(edited_run):
    s = edited_run
    ok = (
        s.counts["check_get"] == [1000, 1000]
        and s.counts["put_iff_check"] == [1000, 1000]
        and s.counts["adversarial"] == [1000, 1000]
    )
    _report(
        3,
        "check(s, get(s)) true 1000/1000; put succeeds iff check accepts, "
        "including adversarial injections",
        ok,
    )


def test_criterion_4_swap_scenario(arith_expr, demo_cst):
    v, ls = arith_expr.get(demo_cst)
    st = swap(EditState(v, ls), (0,), (1,))
    s2 = arith_expr.put(demo_cst, st.view, st.links)
    neg = parse_pattern('Neg "a neg" _')
    has_region = any(
        l.source.pattern == neg for l in arith_expr.get(s2)[1]
    ) and 'Neg "a neg"' in render_pattern(s2)
    relinked = [
        (l.view.pattern, l.view.path)
        for l in arith_expr.get(s2)[1]
        if l.source.pattern == neg
    ]
    ok = has_region and relinked == [(parse_pattern("Sub (Num 0) _"), (0,))]
    _report(4, 'swap keeps (Neg "a neg" _) linked to (Sub (Num 0) _, [0])', ok)


def test_criterion_5_sugar_language(sugarlang):
    h = lens(sugarlang, "SProg", "AProg")
    cst = parse_tree(
        'SProg (SClass "vehicle class" "Vehicle" (SMethod "fuel doc" "fuel" '
        '(SWhile "keep the while" (SVar "hasSpace") (SAssign "" "fuel" (SNum 1))))) '
        '(SClass "car class" "Car" SNoMethod) (SClass "bus class" "Bus" SNoMethod)'
    )
    v, ls = h.get(cst)
    ok_i = h.put(cst, v, ls) == cst
    plain = h.put(cst, v, frozenset())
    ok_ii = (
        "SWhile" not in render_pattern(plain)
        and "SFor" in render_pattern(plain)
        and '"fuel doc"' not in render_pattern(plain)
    )
    script = parse_script(
        "copy [0,1] [1,1]\n"
        'replace [2,1] (AMethod "fuel" (AFor (AVar "hasSpace") (AAssign "fuel" (ANum 1))))\n'
        "replace [0,1] (ANoMethod)\n"
    )
    st = apply_script(EditState(v, ls), script, EditContext(sugarlang.schema, "AProg"))
    cst2 = h.put(cst, st.view, st.links)
    rendered = render_pattern(cst2)
    copied = 'SClass "car class" "Car" (SMethod "fuel doc" "fuel" (SWhile "keep the while"'
    rebuilt = 'SClass "bus class" "Bus" (SMethod "" "fuel" (SFor ""'
    ok_iii = copied in rendered and rebuilt in rendered and "SNoMethod" in rendered
    ok_iv = h.get(cst2)[0] == st.view
    _report(
        5,
        "mini sugar language: identity, desugaring rebuild, push-down retention, view reproduced",
        ok_i and ok_ii and ok_iii and ok_iv,
    )


def test_criterion_6_xml_scenario(addrbook):
    h = lens(addrbook, "AddrBook", "SocialBook")
    book = parse_tree(example_text("addrbook.tree").strip())
    v, ls = h.get(book)
    ops = parse_script(example_text("addrbook_update.edits"))
    st = apply_script(EditState(v, ls), ops, EditContext(addrbook.schema, "SocialBook"))
    book2 = h.put(book, st.view, st.links)
    rendered = render_pattern(book2)
    ok = (
        'AddrGroup "friends" (Cons (Person (Triple "Alice" "alice@abc.xyz" "000111"))'
        in rendered
        and 'AddrGroup "family"' in rendered
        and h.get(book2)[0] == st.view
    )
    _report(6, 'address book keeps Triple "Alice" "alice@abc.xyz" "000111" under friends', ok)


def test_criterion_7_composition(mirror):
    m = lens(mirror, "BinT Int", "BinT Int")
    cl = CompositeLens(m, m)
    summary = verify_laws(cl, 300, size_bound=40, script_len=5, seed=2)
    ok_laws = (
        summary.counts["hippocratic"] == [300, 300]
        and summary.counts["correct"] == [summary.accepted, summary.accepted]
        and summary.counts["retentive"] == [summary.accepted, summary.accepted]
        and summary.counts["check_get"] == [300, 300]
        and summary.counts["put_iff_check"] == [300, 300]
    )
    chain = load_program(example_text("compose_chain.lens"))
    cl2 = CompositeLens(lens(chain, "Term", "Arith"), lens(chain, "Arith", "NArith"))
    c, composed = cl2.get(parse_tree('Neg "a" (Lit "b" 7)'))
    ok_mismatch = composed == frozenset() and c == parse_tree("NSub NZ NZ")
    _report(7, "mirror-twice composite passes laws at 300 trials; mismatched middles compose to the empty set", ok_laws and ok_mismatch)


def test_criterion_8_rejection_suite(arith, arith_expr, arith_term, demo_cst):
    # Case I: ambiguous rules are a validation error.
    ambiguous = example_text("arith.lens").replace(
        "  Paren _ e ~ e\n", "  Paren _ e ~ e\n  Neg _ q ~ q\n"
    )
    try:
        validate_program(parse_program(ambiguous))
        case1 = False
    except ValidationError as e:
        case1 = "E-overlap" in {d.code for d in e.diagnostics}

    # Case II: Term-typed region retained in an Expr slot via FromT wrapping.
    v, ls = arith_expr.get(demo_cst)
    st = swap(EditState(v, ls), (0,), (1,))
    s2 = arith_expr.put(demo_cst, st.view, st.links)
    case2 = render_pattern(s2).startswith('Plus "a plus" (FromT "" (Neg "a neg"')

    # Case III: stacked wrappers; shortest-source-path choice keeps Hippocraticness.
    bp = load_program(example_text("brac_paren.lens"))
    hb = lens(bp, "Term", "Arith")
    s = parse_tree('Brac "b" (FromT "f" (Paren "p" (FromT "" (Lit "x" 1))))')
    vb, lsb = hb.get(s)
    case3 = hb.put(s, vb, lsb) == s

    # Case IV: a Neg region linked to an Add region, and overlapping Sub regions.
    bad = frozenset(
        l
        if l.source.pattern != parse_pattern('Neg "a neg" _')
        else Link(l.source, Region(parse_pattern("Add _ _"), l.view.path))
        for l in ls
    )
    case4a = not arith_expr.check(demo_cst, v, bad)
    try:
        arith_expr.put(demo_cst, v, bad)
        case4a = False
    except InvalidLinks:
        pass
    s_overlap = parse_tree('Minus "m" (FromT "" (Lit "" 0)) (Neg "a neg" (Lit "" 7))')
    overlapping = frozenset(
        {
            Link(Region(parse_pattern('Minus "m" _ _'), ()), Region(parse_pattern("Sub _ _"), ())),
            Link(Region(parse_pattern('Neg "a neg" _'), (2,)), Region(parse_pattern("Sub (Num 0) _"), ())),
            Link(Region(parse_pattern('Lit "" _'), (2, 1)), Region(parse_pattern("Num _"), (1,))),
        }
    )
    case4b = not arith_term.check(s_overlap, parse_tree("Sub (Num 0) (Num 7)"), overlapping)

    _report(
        8,
        "rejection suite: ambiguity at validation, conversion wrapping, wrapper ordering, "
        "mismatched and overlapping links rejected",
        case1 and case2 and case3 and case4a and case4b,
    )


def test_criterion_9_termination_guard():
    vp = load_program(example_text("sugar_chain.lens"))
    h = lens(vp, "P", "V")
    worst = 0.0
    ok = True
    for i in range(100):
        s = gen_tree(vp.schema, "P", 20, i)
        v = parse_tree("VB" if i % 2 else "VA")
        start = time.perf_counter()
        accepted = h.check(s, v, frozenset())
        try:
            h.put(s, v, frozenset())
            put_ok = True
        except InvalidLinks:
            put_ok = False
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        ok = ok and (accepted == put_ok) and elapsed < 1.0
        if v == parse_tree("VB"):
            ok = ok and not accepted  # the chain never terminates for VB
    _report(9, f"bare-variable chains bounded; worst input {worst*1000:.1f}ms < 1s", ok)


def test_criterion_10_format_roundtrips(arith, arith_expr):
    ok = True
    for seed in range(1000):
        t = gen_tree(arith.schema, "Expr", 30, seed)
        text = write_tree_file(t)
        ok = ok and read_tree_file(text) == t and write_tree_file(read_tree_file(text)) == text
    for seed in range(100):
        t = gen_tree(arith.schema, "Expr", 30, seed)
        _, ls = arith_expr.get(t)
        text = render_links(ls)
        ok = ok and parse_links(text) == ls and render_links(parse_links(text)) == text
    for name in sorted(EXAMPLES.glob("*.lens")):
        text = name.read_text(encoding="utf-8")
        ok = ok and render_program(parse_program(text, name.name)) == text
    _report(10, "parse/print identity: 1000 trees, 100 link sets, all shipped programs, byte-exact", ok)
