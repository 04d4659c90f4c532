import itertools

import pytest

from treelens import (
    IntLeaf,
    Node,
    StrLeaf,
    WILDCARD,
    Var,
    check_tree_type,
    default_value,
    parse_pattern,
    parse_tree,
)
from conftest import EXAMPLES, example_text
from oracles import tree_size
from treelens import EditContext, EditState, Replace, apply_script, gen_tree, lens
from treelens.schema import PRIMITIVES, IllTyped, NoFiniteDefault, type_at
from treelens.frontend import load_program, normalize_type_name


def test_check_tree_type_accepts(arith):
    t = parse_tree('Lit "x" 5')
    assert check_tree_type(arith.schema, "Term", t) is None
    assert type_at(arith.schema, "Term", t, ()) == "Term"
    assert type_at(arith.schema, "Term", t, (0,)) == "String"
    assert type_at(arith.schema, "Term", t, (1,)) == "Int"


def test_check_tree_type_primitive(arith):
    check_tree_type(arith.schema, "Int", IntLeaf(3))
    assert type_at(arith.schema, "Int", IntLeaf(3), ()) == "Int"
    with pytest.raises(IllTyped):
        check_tree_type(arith.schema, "Int", StrLeaf("3"))


def test_check_tree_type_wrong_type(arith):
    with pytest.raises(IllTyped) as e:
        check_tree_type(arith.schema, "Expr", parse_tree('Lit "x" 5'))
    assert e.value.path == ()
    assert e.value.expected == "Expr"
    assert e.value.found == "Term"


def test_rule_pattern_holes_take_demanded_types(arith):
    holes = {}
    check_tree_type(arith.schema, "Expr", parse_pattern("Plus _ x y"), holes)
    assert holes == {(0,): "String", (1,): "Expr", (2,): "Term"}  # Annot resolves to String


def test_rule_pattern_bare_var_hole(arith):
    holes = {}
    check_tree_type(arith.schema, "Arith", parse_pattern("t"), holes)
    assert holes == {(): "Arith"}


def test_rule_pattern_rejects(arith):
    with pytest.raises(IllTyped):
        check_tree_type(arith.schema, "Arith", parse_pattern("Plus _ x y"), {})


@pytest.mark.parametrize(
    "hole,found", [(WILDCARD, "wildcard _"), (Var("r"), "variable r")]
)
def test_hole_in_an_input_is_ill_typed(arith, hole, found):
    t = Node("Neg", (StrLeaf("a"), Node("Lit", (StrLeaf(""), hole))))
    with pytest.raises(IllTyped) as e:
        check_tree_type(arith.schema, "Term", t)
    assert (e.value.path, e.value.expected, e.value.found) == ((1, 1), "Int", found)
    assert str(e.value) == f"at [1, 1]: expected Int, found {found}"


def test_check_tree_type_is_iterative(arith, addrbook):
    # A 2,000-term left-deep sum and a 2,000-person list, built in code: far
    # deeper than the interpreter's recursion limit.
    lit = Node("Lit", (StrLeaf(""), IntLeaf(1)))
    e = Node("FromT", (StrLeaf(""), lit))
    for _ in range(1999):
        e = Node("Plus", (StrLeaf(""), e, lit))
    check_tree_type(arith.schema, "Expr", e)
    person = Node("Person", (Node("Triple", (StrLeaf("n"), StrLeaf("e"), StrLeaf("t"))),))
    people = Node("Nil")
    for _ in range(2000):
        people = Node("Cons", (person, people))
    check_tree_type(addrbook.schema, "List Person", people)
    deep = (1,) * 2000
    assert type_at(addrbook.schema, "List Person", people, deep) == "List Person"
    bad = Node("Cons", (person, Node("Cons", (StrLeaf("x"), people))))
    with pytest.raises(IllTyped) as err:
        check_tree_type(addrbook.schema, "List Person", bad)
    assert (err.value.path, err.value.found) == ((1, 0), "String")


def test_default_values(arith):
    assert default_value(arith.schema, "Annot") == StrLeaf("")
    assert default_value(arith.schema, "Arith") == parse_tree("Num 0")
    assert default_value(arith.schema, "Expr") == parse_tree('FromT "" (Lit "" 0)')
    assert default_value(arith.schema, "Int") == IntLeaf(0)


def _enumerate_trees(sch, ty, max_size):
    """All well-typed trees of ``ty`` with at most ``max_size`` nodes."""
    ty = sch.resolve(ty)
    if ty == "Int":
        return [IntLeaf(0)] if max_size >= 1 else []
    if ty == "String":
        return [StrLeaf("")] if max_size >= 1 else []
    out = []
    for c in sch.types[ty]:
        budget = max_size - 1
        if budget < 0:
            continue
        pools = []
        for a in c.arg_types:
            pools.append(_enumerate_trees(sch, a, budget))
        for combo in itertools.product(*pools):
            t = Node(c.name, tuple(combo))
            if tree_size(t) <= max_size:
                out.append(t)
    return out


def test_default_is_global_minimizer(arith):
    # Exhaustive enumeration oracle: nothing smaller exists, and the default
    # itself appears among the minimum-size trees, first in declaration order.
    for ty in ("Arith", "Term", "Expr"):
        d = default_value(arith.schema, ty)
        all_small = _enumerate_trees(arith.schema, ty, tree_size(d))
        assert d in all_small
        assert min(tree_size(t) for t in all_small) == tree_size(d)


def test_no_finite_default():
    vp = load_program(
        """data Stream = More Stream
data Unit = MkUnit

Unit <---> Unit
  MkUnit ~ MkUnit
"""
    )
    with pytest.raises(NoFiniteDefault):
        default_value(vp.schema, "Stream")


def test_generic_instances(addrbook):
    sch = addrbook.schema
    assert "List Person" in sch.types
    assert "List String" in sch.types  # List Name resolves through the synonym
    assert sch.resolve("Name") == "String"
    cons = sch.constructor("List Person", "Cons")
    assert cons is not None and cons.arg_types == ("Person", "List Person")


@pytest.mark.parametrize("name", sorted(p.name for p in EXAMPLES.glob("*.lens")))
def test_schemas_name_types_only_canonically(name):
    # Synonyms resolve where a caller names a type, and nowhere inside a
    # schema walk: every type a validated program mentions is a declared
    # instance or a primitive, never a synonym (those are not keys of types).
    vp = load_program(example_text(name), name)
    sch = vp.schema
    named = set(sch.types) | set(PRIMITIVES)
    used = {a for ctors in sch.types.values() for c in ctors for a in c.arg_types}
    used |= {ty for r in vp.relations for ty in (r.source_type, r.view_type)}
    used |= {
        ty
        for r in vp.relations
        for rule in r.rules
        for x in rule.variables
        for ty in (x.source_type, x.view_type)
    }
    used |= set(sch.synonyms.values())
    assert used <= named
    for ty in named:
        assert normalize_type_name(vp, ty) == ty


def _outcome(f, *args):
    try:
        return ("ok", f(*args))
    except Exception as e:  # every outcome is compared, errors included
        return (type(e).__name__, str(e))


@pytest.mark.parametrize("syn", ["Name", "Email", "Tel"])
def test_synonyms_at_the_entry_points(addrbook, syn):
    sch = addrbook.schema
    view = StrLeaf("v")

    def results(ty):
        return [
            _outcome(check_tree_type, sch, ty, view),
            _outcome(check_tree_type, sch, ty, IntLeaf(1)),
            _outcome(type_at, sch, ty, view, ()),
            _outcome(default_value, sch, ty),
            _outcome(gen_tree, sch, ty, 5, 3),
            _outcome(sch.constructors, ty),
            *(
                _outcome(apply_script, EditState(view, frozenset()), [Replace((), t)], EditContext(sch, ty))
                for t in (StrLeaf("w"), IntLeaf(1))
            ),
        ]

    assert results(syn) == results("String")


def test_synonyms_name_a_lens(addrbook):
    named = lens(addrbook, "Triple Name Email Tel", "Name")
    canonical = lens(addrbook, "Triple String String String", "String")
    assert (named.source_type, named.view_type) == (canonical.source_type, canonical.view_type)
    s = parse_tree('Triple "n" "e" "t"')
    assert named.get(s) == canonical.get(s)


def test_min_sizes(arith):
    sizes = arith.schema.min_sizes()
    assert sizes["Arith"] == 2  # Num 0
    assert sizes["Term"] == 3  # Lit "" 0
    assert sizes["Expr"] == 5  # FromT "" (Lit "" 0)
    assert arith.schema.min_sizes() is sizes  # computed once per schema


def test_list_cell(addrbook, arith):
    sch = addrbook.schema
    assert sch.list_cell("List Person") == sch.constructor("List Person", "Cons")
    assert sch.list_cell("List String").name == "Cons"
    assert sch.list_cell("Person") is None
    # Only the shape counts: Add's second argument is an Arith, although Arith has no nil.
    assert arith.schema.list_cell("Arith").name == "Add"


def test_defaults_share_their_arguments_defaults():
    # Each synonym doubles the least value of W, so a default rebuilt at each
    # use took time exponential in the program's length.  Built once per
    # type, a default is a DAG of its arguments' defaults.
    k = 20
    text = "data P a = P a a\ntype T1 = P Int\n" + "".join(f"type T{i + 1} = P T{i}\n" for i in range(1, k))
    vp = load_program(text + f"data W = W T{k}\ndata V = V\n\nW <---> V\n  W _ ~ V\n")
    d = default_value(vp.schema, "W")
    assert vp.schema.min_sizes()["W"] == 2 ** (k + 1)
    assert d.children[0].children[0] is d.children[0].children[1]
    assert vp.relations[0].rules[0].defaults[0] is d.children[0]
