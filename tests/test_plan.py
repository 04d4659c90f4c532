"""Compiled rules against the generic helpers they replace in the engine.

Each closure of a rule must agree with the helper composition it stands
for: ``is_match`` for the match verdicts, and the oracles of ``oracles.py``
for the rest: ``decompose`` for the bindings,
``erase_vars(fill_wildcards(...))`` for get's region and ``reconstruct`` for
every rebuilt tree.  ``merge`` has no generic helper; its reference is the
recursive region merge written out below, and a source region with content
where its rule has an erased variable must reach ``merge`` and fail there.
A rule's variable records must agree with the typing walk's hole map and
the program's relations, and a rule compiles its three patterns once each.
"""

import random

import pytest

from conftest import EXAMPLES, defaulted, subtrees
from oracles import decompose, fill_wildcards, reconstruct
from treelens import (
    WILDCARD,
    IntLeaf,
    Link,
    Node,
    Region,
    StrLeaf,
    Var,
    Wildcard,
    canonical_links,
    check_tree_type,
    erase_vars,
    is_match,
    lens,
    load_program,
    parse_pattern,
    parse_program,
    parse_tree,
    sel,
)
from treelens.edits import _replace_at
from treelens.engine import InvalidLinks
from treelens.frontend import Relation, _compile_rule
from treelens.harness import corrupt_links, gen_tree
from treelens.schema import PRIMITIVES
from treelens.trees import is_ground

SEEDS = range(50)


def _programs():
    return [
        load_program(path.read_text(encoding="utf-8"), path.name)
        for path in sorted(EXAMPLES.glob("*.lens"))
    ]


def _relations():
    return [
        pytest.param(vp, rel, id=f"{vp.source_name}:{rel.source_type}>{rel.view_type}")
        for vp in _programs()
        for rel in vp.relations
    ]


def _reference_merge(rule_source, region):
    """The rule pattern with its wildcards taken from ``region``, or None.

    ``region`` must look like the rule's source pattern after a match: a
    wildcard exactly at each variable, ground content at each wildcard, the
    rule's constructors and literals elsewhere.
    """
    if isinstance(rule_source, Var):
        return rule_source if isinstance(region, Wildcard) else None
    if isinstance(rule_source, Wildcard):
        return region if is_ground(region) else None
    if not isinstance(rule_source, Node):
        return rule_source if region == rule_source else None
    if not (
        isinstance(region, Node)
        and region.ctor == rule_source.ctor
        and len(region.children) == len(rule_source.children)
    ):
        return None
    merged = []
    for a, b in zip(rule_source.children, region.children):
        m = _reference_merge(a, b)
        if m is None:
            return None
        merged.append(m)
    return Node(rule_source.ctor, tuple(merged))


def _assert_source_side(rule, core, t):
    """``core`` is the rule's source pattern with its wildcards defaulted."""
    assert rule.match_source(t) is is_match(rule.source, t)
    if not is_match(rule.source, t):
        return
    b = decompose(rule.source, t)
    assert {x.name: x.source_at(t) for x in rule.variables} == b
    region = rule.region(t)
    assert region == erase_vars(fill_wildcards(rule.source, t))
    parts = [b[x.name] for x in rule.variables]
    fills = rule.merge(region)
    assert fills is not None
    assert rule.build_source(fills + parts) == reconstruct(fill_wildcards(rule.source, t), b) == t
    assert rule.build_source([*rule.defaults] + parts) == reconstruct(core, b)


def _assert_view_side(rule, v):
    assert rule.match_view(v) is is_match(rule.view, v)
    if not is_match(rule.view, v):
        return
    b = decompose(rule.view, v)
    assert {x.name: x.view_at(v) for x in rule.variables} == b
    assert rule.build_view([b[x.name] for x in rule.variables]) == reconstruct(rule.view, b) == v


def _assert_merge(rule, region):
    ref = _reference_merge(rule.source, region)
    fills = rule.merge(region)
    assert (fills is None) == (ref is None), (rule.source, region)
    if ref is not None:
        parts = {x.name: StrLeaf(f"<{x.name}>") for x in rule.variables}
        assert rule.build_source(fills + [parts[x.name] for x in rule.variables]) == reconstruct(
            ref, parts
        )


def _region_variants(region):
    """The region and, one child at a time, that child erased or made ground."""
    yield region
    if isinstance(region, Node):
        for i in range(len(region.children)):
            for c in (WILDCARD, StrLeaf("zz")):
                yield Node(region.ctor, region.children[:i] + (c,) + region.children[i + 1 :])


@pytest.mark.parametrize("vp,rel", _relations())
def test_plans_agree_with_the_generic_helpers(vp, rel):
    rules = [r for other in vp.relations for r in other.rules]
    cores = {
        r: defaulted(vp.schema, other.source_type, r.source)
        for other in vp.relations
        for r in other.rules
    }
    for seed in SEEDS:
        s = gen_tree(vp.schema, rel.source_type, 25, seed)
        v = gen_tree(vp.schema, rel.view_type, 25, seed)
        # Every rule of the program against every subtree, so mismatches of
        # each kind (constructor, arity, literal, nested) are exercised.
        for _, t in subtrees(s):
            for rule in rules:
                _assert_source_side(rule, cores[rule], t)
        for _, t in subtrees(v):
            for rule in rules:
                _assert_view_side(rule, t)
        _, ls = lens(vp, rel.source_type, rel.view_type).get(s)
        for l in ls | corrupt_links(ls, seed):
            for region in _region_variants(l.source.pattern):
                for rule in rules:
                    _assert_merge(rule, region)


def test_each_rule_compiles_its_source_view_and_region_pattern_once(monkeypatch):
    from treelens import plan

    compiled = []
    compile_pattern = plan._compile
    monkeypatch.setattr(plan, "_compile", lambda p, *a, **k: compiled.append(p) or compile_pattern(p, *a, **k))
    for path in sorted(EXAMPLES.glob("*.lens")):
        compiled.clear()
        vp = load_program(path.read_text(encoding="utf-8"), path.name)
        rules = [r for rel in vp.relations for r in rel.rules]
        assert compiled == [q for r in rules for q in (r.source, r.view, erase_vars(r.source))]


@pytest.mark.parametrize("vp,rel", _relations())
def test_rule_variables_agree_with_the_typing_walk(vp, rel):
    for rule in rel.rules:
        holes: list = [{}, {}]
        check_tree_type(vp.schema, rel.source_type, rule.source, holes[0])
        check_tree_type(vp.schema, rel.view_type, rule.view, holes[1])
        wildcards = [h for h in holes[0] if isinstance(sel(rule.source, h), Wildcard)]
        assert len(rule.defaults) == len(wildcards)
        names = [sel(rule.source, h).name for h in holes[0] if h not in wildcards]
        assert [x.name for x in rule.variables] == names
        assert rule.bare_view is isinstance(rule.view, Var)
        for x in rule.variables:
            assert sel(rule.source, x.source_path) == sel(rule.view, x.view_path) == Var(x.name)
            assert (x.source_type, x.view_type) == (holes[0][x.source_path], holes[1][x.view_path])
            primitive = x.source_type in PRIMITIVES
            assert x.relation is (None if primitive else vp.relation(x.source_type, x.view_type))


_LITERAL_NESTED = """\
data T = A Int Pr | B String | C | D Int String T | E Pr Int
data Pr = Pr String T
data V = VA V | VB String | VC | VD VP V
data VP = VP Int String

T <---> V
  A 7 (Pr _ t) ~ VA t
  B s ~ VB s
  C ~ VC
  D _ _ t ~ VA t
  E (Pr s t) _ ~ VD (VP 0 s) t
  _ ~ VC
"""


def _literal_nested():
    # A literal in a source pattern cannot pass validation (coverage needs a
    # wild row at its position, which overlaps it), so the rules are
    # compiled one by one.
    prog = parse_program(_LITERAL_NESTED)
    (raw_rel,) = prog.relations
    rel = Relation("T", "V", raw_rel.line)
    rules = [
        _compile_rule(prog.schema, raw_rel, raw, i, {("T", "V"): rel}, [])
        for i, raw in enumerate(raw_rel.rules)
    ]
    assert None not in rules
    return prog, rel, rules


def test_plans_with_a_literal_and_a_nested_constructor():
    # `D _ _ t` has two wildcards of different types, so its defaults must
    # come in preorder; `_` is a wildcard at the root.
    prog, rel, rules = _literal_nested()
    a_rule = rules[0]
    (t_var,) = a_rule.variables
    assert (t_var.name, t_var.source_path) == ("t", (1, 1)) and t_var.relation is rel
    cores = {rule: defaulted(prog.schema, "T", rule.source) for rule in rules}
    for seed in range(200):
        t = gen_tree(prog.schema, "T", 20, seed)
        for _, sub in subtrees(t):
            for rule in rules:
                _assert_source_side(rule, cores[rule], sub)
                _assert_merge(rule, sub)
    hit = Node("A", (IntLeaf(7), Node("Pr", (StrLeaf("c"), Node("C")))))
    miss = Node("A", (IntLeaf(8), Node("Pr", (StrLeaf("c"), Node("C")))))
    assert a_rule.match_source(hit) and not a_rule.match_source(miss)
    region = a_rule.region(hit)
    assert region == Node("A", (IntLeaf(7), Node("Pr", (StrLeaf("c"), WILDCARD))))
    for r in _region_variants(region):
        _assert_merge(a_rule, r)
    for r in _region_variants(region.children[1]):
        _assert_merge(a_rule, Node("A", (IntLeaf(7), r)))
    _assert_merge(a_rule, Node("A", (IntLeaf(8), region.children[1])))


def test_plans_with_a_constant_that_holds_erased_variables():
    # `E (Pr s t) _` nests a constructor that holds only variables, so its
    # region pattern `E (Pr _ _) _` keeps `Pr _ _` as a constant, which merge
    # must find equal, erased variables included.  `VD (VP 0 s) t` nests a
    # literal under a constructor that holds a variable.
    prog, _, rules = _literal_nested()
    e_rule = rules[4]
    hit = parse_tree('E (Pr "c" C) 4')
    assert e_rule.match_source(hit) and not e_rule.match_source(parse_tree("C"))
    region = e_rule.region(hit)
    assert region == parse_pattern("E (Pr _ _) 4")
    assert e_rule.merge(region) == [IntLeaf(4)]
    for bad in ('E (Pr "z" _) 4', "E (Pr _ C) 4", "E _ 4", "E (Pr _ _) _", "E (Pr _) 4"):
        assert e_rule.merge(parse_pattern(bad)) is None
        _assert_merge(e_rule, parse_pattern(bad))
    view = parse_tree('VD (VP 0 "c") VC')
    assert e_rule.match_view(view) and not e_rule.match_view(parse_tree('VD (VP 1 "c") VC'))
    assert e_rule.build_view([StrLeaf("c"), Node("VC")]) == view
    for v in (view, parse_tree('VD (VP 0 "c") (VD (VP 3 "d") VC)')):
        for _, sub in subtrees(v):
            for rule in rules:
                _assert_view_side(rule, sub)
    for seed in range(200):
        for _, sub in subtrees(gen_tree(prog.schema, "V", 20, seed)):
            for rule in rules:
                _assert_view_side(rule, sub)


def _filled_erased_variable(s, ls, seed):
    """One of get's links ``ls`` with the source subtree put in place of a
    ``_`` of its source region, which stands for an erased variable (get
    fills every rule wildcard), or None if no region holds one."""
    spots = [
        (l, q)
        for l in canonical_links(ls)
        for q, sub in subtrees(l.source.pattern)
        if isinstance(sub, Wildcard)
    ]
    if not spots:
        return None
    l, q = spots[random.Random(seed).randrange(len(spots))]
    filled = _replace_at(l.source.pattern, q, sel(s, l.source.path + q))
    assert is_match(filled, sel(s, l.source.path))
    return l, Link(Region(filled, l.source.path), l.view)


def test_merge_rejects_content_at_an_erased_variable():
    # A source region that still matches the source, but holds content where
    # the rule's region pattern has an erased variable, is generated by no
    # rule: put's check must name that link, and put must refuse it.
    from test_programs import RELATIONS

    ran = 0
    for name, sty, vty in RELATIONS:
        vp = load_program((EXAMPLES / name).read_text(encoding="utf-8"), name)
        h = lens(vp, sty, vty)
        for seed in SEEDS:
            s = gen_tree(vp.schema, h.source_type, 30, seed)
            v, ls = h.get(s)
            found = _filled_erased_variable(s, ls, seed)
            if found is None:
                continue
            ran += 1
            old, bad = found
            links = ls - {old} | {bad}
            f = h.check_explain(s, v, links)
            assert f is not None and (f.code, f.link) == ("E-no-generating-rule", bad), (name, seed)
            with pytest.raises(InvalidLinks):
                h.put(s, v, links)
    assert ran == 406, ran  # of 550: no region of the other sources holds an erased variable
