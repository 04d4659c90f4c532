"""Seeded inputs, edit scripts and reference results for the three workloads.

Each generator returns the source document together with its reference view
and reference links, computed by ``ref_get`` from hand-written tables of the
shipped ``.lens`` rules.  Each round's edit comes with the edited view and
the written-back source that the benchmark expects, made by its own tree
surgery.  Nothing here imports ``treelens``.
"""

from __future__ import annotations

import random
import string

from treetext import WILD, get_at, node_count, render_path, set_at

# ---------------------------------------------------------------------------
# Reference get: a rule is (view pattern, [(child index, child type, view path)])
# keyed by (source type, source constructor).  The source region is the source
# node with its variable children erased; the view is the view pattern with
# each child's view placed at its view path ("()" for a bare-variable rule).

_PRIMITIVE = ("String", "Int")

ADDRBOOK = {
    ("AddrBook", "AddrBook"): (("SocialBook", WILD), [(0, "Groups", (0,))]),
    ("Groups", "Nil"): (("Nil",), []),
    ("Groups", "Cons"): (("Cons", WILD, WILD), [(0, "Group", (0,)), (1, "Groups", (1,))]),
    ("Group", "AddrGroup"): (("SocialGroup", WILD, WILD), [(0, "String", (0,)), (1, "Persons", (1,))]),
    ("Persons", "Nil"): (("Nil",), []),
    ("Persons", "Cons"): (("Cons", WILD, WILD), [(0, "Person", (0,)), (1, "Persons", (1,))]),
    ("Person", "Person"): (WILD, [(0, "Triple", ())]),
    ("Triple", "Triple"): (WILD, [(0, "String", ())]),
}

ARITH = {
    ("Expr", "Plus"): (("Add", WILD, WILD), [(1, "Expr", (0,)), (2, "Term", (1,))]),
    ("Expr", "Minus"): (("Sub", WILD, WILD), [(1, "Expr", (0,)), (2, "Term", (1,))]),
    ("Expr", "FromT"): (WILD, [(1, "Term", ())]),
    ("Term", "Lit"): (("Num", WILD), [(1, "Int", (0,))]),
    ("Term", "Neg"): (("Sub", ("Num", 0), WILD), [(1, "Term", (1,))]),
    ("Term", "Paren"): (WILD, [(1, "Expr", ())]),
}

SUGAR = {
    ("SProg", "SProg"): (("AProg", WILD, WILD, WILD), [(i, "SClass", (i,)) for i in range(3)]),
    ("SClass", "SClass"): (("AClass", WILD, WILD), [(1, "String", (0,)), (2, "SMethod", (1,))]),
    ("SMethod", "SMethod"): (("AMethod", WILD, WILD), [(1, "String", (0,)), (2, "SStmt", (1,))]),
    ("SMethod", "SNoMethod"): (("ANoMethod",), []),
    ("SStmt", "SFor"): (("AFor", WILD, WILD), [(1, "SExpr", (0,)), (2, "SStmt", (1,))]),
    ("SStmt", "SWhile"): (("AFor", WILD, WILD), [(1, "SExpr", (0,)), (2, "SStmt", (1,))]),
    ("SStmt", "SAssign"): (("AAssign", WILD, WILD), [(1, "String", (0,)), (2, "SExpr", (1,))]),
    ("SStmt", "SSkip"): (("ASkip",), []),
    ("SExpr", "SVar"): (("AVar", WILD), [(0, "String", (0,))]),
    ("SExpr", "SNum"): (("ANum", WILD), [(0, "Int", (0,))]),
}

MIRROR = {
    ("BinT", "Tip"): (("Tip",), []),
    ("BinT", "Node"): (("Node", WILD, WILD, WILD), [(0, "Int", (0,)), (1, "BinT", (2,)), (2, "BinT", (1,))]),
}


def ref_get(rules: dict, sty: str, src: object) -> tuple[object, set]:
    """View and link set of ``src``, by the rule table; iterative post-order."""
    links: set = set()
    done: list = []
    stack: list = [(src, sty, (), (), None)]
    while stack:
        node, ty, sp, vp, rule = stack.pop()
        if ty in _PRIMITIVE:
            done.append(node)
            continue
        if rule is None:
            rule = rules[(ty, node[0])]
            vpat, kids = rule
            erased = {i for i, _, _ in kids}
            spat = (node[0], *(WILD if i in erased else c for i, c in enumerate(node[1:])))
            links.add((spat, sp, vpat, vp))
            stack.append((node, ty, sp, vp, rule))
            for i, kty, vrel in reversed(kids):
                stack.append((node[i + 1], kty, sp + (i,), vp + vrel, None))
            continue
        vpat, kids = rule
        views = done[len(done) - len(kids):]
        del done[len(done) - len(kids):]
        view = vpat
        for (_, _, vrel), kv in zip(kids, views):
            view = set_at(view, vrel, kv) if vrel else kv
        done.append(view)
    return done[0], links


def projection(links) -> set:
    """Links with the source path dropped: what Retention must preserve."""
    return {(sp, vpat, vp) for sp, _, vpat, vp in links}


def compose_links(first, second) -> set:
    """Relational composition, matching first's view region on second's source region."""
    by_region: dict = {}
    for sp, spath, vpat, vpath in second:
        by_region.setdefault((sp, spath), []).append((vpat, vpath))
    return {
        (sp, spath, v2, p2)
        for sp, spath, vpat, vpath in first
        for v2, p2 in by_region.get((vpat, vpath), ())
    }


# ---------------------------------------------------------------------------
# Small helpers


def cons_list(items: list, cons: str = "Cons", nil: str = "Nil") -> tuple:
    out: tuple = (nil,)
    for x in reversed(items):
        out = (cons, x, out)
    return out


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _digits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(string.digits) for _ in range(n))


class Doc:
    """One generated document with its reference view and links."""

    def __init__(self, rules: dict, sty: str, source: object):
        self.rules, self.sty, self.source = rules, sty, source
        self.view, self.links = ref_get(rules, sty, source)
        self.source_nodes = node_count(source)
        self.view_nodes = node_count(self.view)


# ---------------------------------------------------------------------------
# addrbook-edit: contact lists; rounds insert, delete, move and swap contacts.


class AddrBook(Doc):
    lens_file = "addrbook.lens"
    relation = ("AddrBook", "SocialBook")

    def __init__(self, rng: random.Random, groups: int, per_group: int):
        self.groups = []
        for g in range(groups):
            people = []
            for _ in range(per_group):
                name = _word(rng, 1).upper() + _word(rng, 7)
                people.append((name, f"{name.lower()}@{_word(rng, 5)}.org", _digits(rng, 9)))
            self.groups.append((f"group{g:02d}{_word(rng, 4)}", people))
        super().__init__(ADDRBOOK, "AddrBook", self._source(self.groups))

    @staticmethod
    def _source(groups) -> tuple:
        return ("AddrBook", cons_list([
            ("AddrGroup", g, cons_list([("Person", ("Triple", n, e, t)) for n, e, t in ps]))
            for g, ps in groups
        ]))

    @staticmethod
    def _view(groups) -> tuple:
        return ("SocialBook", cons_list([
            ("SocialGroup", g, cons_list([n for n, _, _ in ps])) for g, ps in groups
        ]))

    @staticmethod
    def _list_path(g: int) -> tuple:
        return (0,) + (1,) * g + (0, 1)

    def _contact(self, g: int, j: int) -> str:
        return render_path(self._list_path(g) + (1,) * j + (0,))

    def round_edit(self, rng: random.Random, i: int) -> tuple[str, object, object, int]:
        """(script text, expected view, expected source, op count) of round ``i``.

        Round ``i`` has 1 + i % 3 list ops whose kinds cycle through insert,
        delete, move and swap, so every twelve rounds hold the same mix; the
        places are seeded.  Contacts keep their email and phone while their
        links follow them; a contact created by the script has no link and
        gets the defaults "".
        """
        groups = [(g, list(ps)) for g, ps in self.groups]
        lines = []
        n_ops = 1 + i % 3
        for k in range(n_ops):
            filled = [(g, j) for g, (_, ps) in enumerate(groups) for j in range(len(ps))]
            kind = ("insert", "delete", "move", "swap")[(i + k) % 4] if len(filled) >= 2 else "insert"
            if kind == "insert":
                g = rng.randrange(len(groups))
                j = rng.randint(0, len(groups[g][1]))
                name = _word(rng, 1).upper() + _word(rng, 7)
                groups[g][1].insert(j, (name, "", ""))
                lines.append(f'insert {render_path(self._list_path(g))} {j} ("{name}")')
            elif kind == "delete":
                g, j = rng.choice(filled)
                del groups[g][1][j]
                lines.append(f"delete {render_path(self._list_path(g))} {j}")
            else:
                (g1, j1), (g2, j2) = rng.sample(filled, 2)
                a, b = groups[g1][1][j1], groups[g2][1][j2]
                if kind == "swap":
                    groups[g1][1][j1], groups[g2][1][j2] = b, a
                    lines.append(f"swap {self._contact(g1, j1)} {self._contact(g2, j2)}")
                else:
                    filler = _word(rng, 1).upper() + _word(rng, 7)
                    groups[g1][1][j1], groups[g2][1][j2] = (filler, "", ""), a
                    lines.append(f'move {self._contact(g1, j1)} {self._contact(g2, j2)} ("{filler}")')
        return "\n".join(lines) + "\n", self._view(groups), self._source(groups), n_ops


# ---------------------------------------------------------------------------
# arith-deep: a left-deep sum; rounds swap one node's operands or replace a literal.


class Arith(Doc):
    lens_file = "arith.lens"
    relation = ("Expr", "Arith")

    def __init__(self, rng: random.Random, terms: int):
        n = terms
        # Fixed shares of each term kind, shuffled, keep every seed's size equal.
        kinds = ["lit"] * (n // 3) + ["neg"] * (n // 3) + ["paren"] * (n - 2 * (n // 3))
        rng.shuffle(kinds)
        self.n = n
        self.literals = []  # (source path, view path) of each Lit and its Num
        expr = None
        for m, kind in enumerate(kinds):
            i = rng.randint(1, 999)
            lit = ("Lit", "l" + _word(rng, 5), i)
            depth = n - 1 - m  # depth of the spine node (or FromT) holding term m
            sp = (1,) * depth + ((2,) if m else (1,))
            vp = (0,) * depth + ((1,) if m else ())
            if kind == "lit":
                term, lsp, lvp = lit, sp, vp
            elif kind == "neg":
                term, lsp, lvp = ("Neg", "n" + _word(rng, 5), lit), sp + (1,), vp + (1,)
            else:
                inner = ("FromT", "f" + _word(rng, 5), lit)
                term, lsp, lvp = ("Paren", "p" + _word(rng, 5), inner), sp + (1, 1), vp
            self.literals.append((lsp, lvp))
            if m == 0:
                expr = ("FromT", "b" + _word(rng, 5), term)
            else:
                expr = (rng.choice(("Plus", "Minus")), "o" + _word(rng, 5), expr, term)
        super().__init__(ARITH, "Expr", expr)

    def round_edit(self, rng: random.Random, i: int) -> tuple[str, object, object, int]:
        """Even rounds swap the operands of one spine node, odd ones replace a literal.

        A swapped operand keeps its region, wrapped by the conversion the lens
        synthesizes for its new slot: a Term in an Expr slot becomes
        ``FromT "" t`` and an Expr in a Term slot ``Paren "" e``.
        """
        if i % 2 == 0:
            d = rng.randrange(self.n - 1)
            vp, sp = (0,) * d, (1,) * d
            v = get_at(self.view, vp)
            s = get_at(self.source, sp)
            script = f"swap {render_path(vp + (0,))} {render_path(vp + (1,))}\n"
            view = set_at(self.view, vp, (v[0], v[2], v[1]))
            source = set_at(self.source, sp, (s[0], s[1], ("FromT", "", s[3]), ("Paren", "", s[2])))
        else:
            lsp, lvp = rng.choice(self.literals)
            old = get_at(self.view, lvp + (0,))
            k = rng.randint(1, 998)
            k += k >= old
            script = f"replace {render_path(lvp + (0,))} ({k})\n"
            view = set_at(self.view, lvp + (0,), k)
            source = set_at(self.source, lsp + (1,), k)
        return script, view, source, 1


# ---------------------------------------------------------------------------
# laws-small: fresh small sugarlang programs, and a minority of mirror∘mirror trees.


def _sugar_stmt(rng: random.Random, depth: int) -> tuple:
    kinds = ("SFor", "SWhile", "SAssign", "SAssign", "SSkip") if depth < 3 else ("SAssign", "SSkip")
    kind = rng.choice(kinds)
    if kind == "SSkip":
        return ("SSkip",)
    expr = ("SVar", "v" + _word(rng, 2)) if rng.random() < 0.5 else ("SNum", rng.randint(0, 99))
    comment = "-- " + _word(rng, rng.randint(3, 10))
    if kind == "SAssign":
        return ("SAssign", comment, "x" + _word(rng, 2), expr)
    return (kind, comment, expr, _sugar_stmt(rng, depth + 1))


def _sugar_method(rng: random.Random) -> tuple:
    if rng.random() < 0.15:
        return ("SNoMethod",)
    return ("SMethod", "-- " + _word(rng, 6), "m" + _word(rng, 3), _sugar_stmt(rng, 0))


class SugarTrial:
    """A sugarlang program of 20-60 nodes; the edit moves or swaps methods across classes."""

    def __init__(self, rng: random.Random):
        while True:
            src = ("SProg", *(("SClass", "-- " + _word(rng, 5), "C" + _word(rng, 3), _sugar_method(rng))
                              for _ in range(3)))
            if 20 <= node_count(src) <= 60:
                break
        self.doc = Doc(SUGAR, "SProg", src)
        i, j = rng.sample(range(3), 2)
        mi, mj = src[i + 1][3], src[j + 1][3]
        vi, vj = self.doc.view[i + 1][2], self.doc.view[j + 1][2]
        if rng.random() < 0.5:  # push a method down into another class
            self.op = ("move", (i, 1), (j, 1), ("ANoMethod",))
            new_i, new_j, view_i, view_j = ("SNoMethod",), mi, ("ANoMethod",), vi
        else:
            self.op = ("swap", (i, 1), (j, 1))
            new_i, new_j, view_i, view_j = mj, mi, vj, vi
        self.expected_source = set_at(set_at(src, (i, 2), new_i), (j, 2), new_j)
        self.expected_view = set_at(set_at(self.doc.view, (i, 1), view_i), (j, 1), view_j)
        self.expected_links = ref_get(SUGAR, "SProg", self.expected_source)[1]


def _full_bint(rng: random.Random, depth: int) -> tuple:
    # Built bottom-up, one level at a time.
    level = [("Tip",)] * (2 ** depth)
    while len(level) > 1:
        level = [("Node", rng.randint(0, 99), level[k], level[k + 1]) for k in range(0, len(level), 2)]
    return level[0]


def _subtree_paths(t: object) -> list[tuple]:
    out, stack = [], [((), t)]
    while stack:
        p, v = stack.pop()
        out.append(p)
        if v[0] == "Node":
            stack += [(p + (1,), v[2]), (p + (2,), v[3])]
    return out


class MirrorTrial:
    """A full BinT Int tree of depth 4 through mirror∘mirror; the edit swaps two subtrees.

    One depth for all keeps these trials, the slowest fifth of the workload,
    from splitting into size classes that a percentile could fall between.
    """

    def __init__(self, rng: random.Random):
        src = _full_bint(rng, 4)
        self.doc = Doc(MIRROR, "BinT", src)
        twice_view, self.doc.links = self._twice(src)
        self.doc.view, self.doc.view_nodes = twice_view, node_count(twice_view)
        paths = [p for p in _subtree_paths(twice_view) if p]
        while True:
            p, q = rng.sample(paths, 2)
            if p[: len(q)] != q and q[: len(p)] != p:
                break
        self.op = ("swap", p, q)
        v = twice_view
        a, b = get_at(v, p), get_at(v, q)
        self.expected_view = set_at(set_at(v, p, b), q, a)
        # mirror∘mirror is the identity and BinT Int hides nothing.
        self.expected_source = self.expected_view
        self.expected_links = self._twice(self.expected_source)[1]

    @staticmethod
    def _twice(src: object) -> tuple[object, set]:
        """View and composed links of mirror∘mirror."""
        once_view, once_links = ref_get(MIRROR, "BinT", src)
        twice_view, twice_links = ref_get(MIRROR, "BinT", once_view)
        return twice_view, compose_links(once_links, twice_links)
