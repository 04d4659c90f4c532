"""Rule plans against the generic ``trees`` helpers they replace in the engine.

Each plan closure must agree with the helper composition it stands for:
``is_match`` for the match verdicts, ``decompose`` for the bindings,
``erase_vars(fill_wildcards(...))`` for get's region and ``reconstruct`` for
every rebuilt tree.  ``merge`` has no public helper; its reference is the
recursive region merge written out below.
"""

import pytest

from conftest import EXAMPLES, subtrees
from treelens import (
    WILDCARD,
    IntLeaf,
    Node,
    StrLeaf,
    Var,
    Wildcard,
    decompose,
    erase_vars,
    fill_wildcards,
    is_match,
    lens,
    load_program,
    parse_program,
    reconstruct,
)
from treelens.frontend import _compile_rule
from treelens.harness import corrupt_links, gen_tree
from treelens.plan import compile_plan
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


def _assert_source_side(rule, t):
    plan = rule.plan
    assert plan.match_source(t) is is_match(rule.source, t)
    if not is_match(rule.source, t):
        return
    b = decompose(rule.source, t)
    assert {x.name: x.source_at(t) for x in plan.variables} == b
    region = plan.region(t)
    assert region == erase_vars(fill_wildcards(rule.source, t))
    parts = [b[x.name] for x in plan.variables]
    fills = plan.merge(region)
    assert fills is not None
    assert plan.source(fills + parts) == reconstruct(fill_wildcards(rule.source, t), b) == t
    assert plan.source(list(plan.defaults) + parts) == reconstruct(rule.source_defaulted, b)


def _assert_view_side(rule, v):
    plan = rule.plan
    assert plan.match_view(v) is is_match(rule.view, v)
    if not is_match(rule.view, v):
        return
    b = decompose(rule.view, v)
    assert {x.name: x.view_at(v) for x in plan.variables} == b
    assert plan.view([b[x.name] for x in plan.variables]) == reconstruct(rule.view, b) == v


def _assert_merge(rule, region):
    ref = _reference_merge(rule.source, region)
    fills = rule.plan.merge(region)
    assert (fills is None) == (ref is None), (rule.source, region)
    if ref is not None:
        parts = {x: StrLeaf(f"<{x}>") for x in rule.variables}
        assert rule.plan.source(fills + [parts[x] for x in rule.variables]) == reconstruct(
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
    for seed in SEEDS:
        s = gen_tree(vp.schema, rel.source_type, 25, seed)
        v = gen_tree(vp.schema, rel.view_type, 25, seed)
        # Every rule of the program against every subtree, so mismatches of
        # each kind (constructor, arity, literal, nested) are exercised.
        for _, t in subtrees(s):
            for rule in rules:
                _assert_source_side(rule, t)
        for _, t in subtrees(v):
            for rule in rules:
                _assert_view_side(rule, t)
        _, ls = lens(vp, rel.source_type, rel.view_type).get(s)
        for l in ls | corrupt_links(ls, seed):
            for region in _region_variants(l.source.pattern):
                for rule in rules:
                    _assert_merge(rule, region)


_LITERAL_NESTED = """\
data T = A Int Pr | B String | C
data Pr = Pr String T
data V = VA V | VB String | VC

T <---> V
  A 7 (Pr _ t) ~ VA t
  B s ~ VB s
  C ~ VC
"""


def test_plans_with_a_literal_and_a_nested_constructor():
    # A literal in a source pattern cannot pass validation (coverage needs a
    # wild row at its position, which overlaps it), so the rules are
    # compiled one by one.
    prog = parse_program(_LITERAL_NESTED)
    (raw_rel,) = prog.relations
    rules = []
    for i, raw in enumerate(raw_rel.rules):
        rule = _compile_rule(prog.schema, raw_rel, raw, i, [])
        rule.plan = compile_plan(rule, lambda sty, vty: None if sty == "String" else raw_rel)
        rules.append(rule)
    a_rule = rules[0]
    assert a_rule.variables == ("t",) and a_rule.plan.variables[0].source_path == (1, 1)
    for seed in range(200):
        t = gen_tree(prog.schema, "T", 20, seed)
        for _, sub in subtrees(t):
            for rule in rules:
                _assert_source_side(rule, sub)
                _assert_merge(rule, sub)
    hit = Node("A", (IntLeaf(7), Node("Pr", (StrLeaf("c"), Node("C")))))
    miss = Node("A", (IntLeaf(8), Node("Pr", (StrLeaf("c"), Node("C")))))
    assert a_rule.plan.match_source(hit) and not a_rule.plan.match_source(miss)
    region = a_rule.plan.region(hit)
    assert region == Node("A", (IntLeaf(7), Node("Pr", (StrLeaf("c"), WILDCARD))))
    for r in _region_variants(region):
        _assert_merge(a_rule, r)
    for r in _region_variants(region.children[1]):
        _assert_merge(a_rule, Node("A", (IntLeaf(7), r)))
    _assert_merge(a_rule, Node("A", (IntLeaf(8), region.children[1])))
