"""Randomized law verification: generators, trials, and verdict reports.

Each trial generates a well-typed source, runs the lens round trip, applies a
random (type-correct) edit script to the view with link maintenance, and
checks: Hippocraticness (put of an unmodified get is the identity),
Correctness (the written-back source presents exactly the edited view),
Retentiveness (every input link's source pattern and view region reappear in
the new links), agreement of check with get, and put-succeeds-iff-check-true,
including a deliberately corrupted link set per trial.

Reports are deterministic per seed, bit for bit; failures carry a
script-prefix-minimized counterexample.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .edits import (
    Copy,
    Delete,
    EditContext,
    EditOp,
    EditState,
    Insert,
    Move,
    NotAList,
    Replace,
    Swap,
    _spine,
    apply_op,
    apply_script,
    render_script,
)
from .engine import InvalidLinks
from .schema import Schema, default_value
from .text import render_links, render_pattern
from .trees import (
    IntLeaf,
    Link,
    Node,
    Path,
    Region,
    StrLeaf,
    Tree,
    canonical_links,
    fst_projection,
)

_STRINGS = ("", "a", "b", "xy", "note", "k")

LAWS = ("hippocratic", "correct", "retentive", "check_get", "put_iff_check", "adversarial")


def gen_tree(sch: Schema, ty: str, size_bound: int, seed: int) -> Tree:
    """Well-typed tree of ``ty`` with at most ``size_bound`` nodes."""
    rng = random.Random(seed)
    sizes = sch.min_sizes()
    ty = sch.resolve(ty)
    return _gen(sch, ty, max(size_bound, sizes.get(ty, 1)), rng, sizes)


def _gen(sch: Schema, ty: str, budget: int, rng: random.Random, sizes: dict[str, int]) -> Tree:
    if ty == "Int":
        return IntLeaf(rng.randint(-9, 99))
    if ty == "String":
        return StrLeaf(rng.choice(_STRINGS))
    fitting = [
        c
        for c in sch.types[ty]
        if all(a in sizes for a in c.arg_types)
        and 1 + sum(sizes[a] for a in c.arg_types) <= budget
    ]
    if not fitting:
        return default_value(sch, ty)
    ctor = rng.choice(fitting)
    slack = budget - 1 - sum(sizes[a] for a in ctor.arg_types)
    children = []
    for a in ctor.arg_types:
        extra = rng.randint(0, slack)
        slack -= extra
        children.append(_gen(sch, a, sizes[a] + extra, rng, sizes))
    return Node(ctor.name, tuple(children))


def _list_elements(sch: Schema) -> dict[str, str]:
    """Types with a cell/nil spine shape: type -> element type."""
    out: dict[str, str] = {}
    for ty, ctors in sch.types.items():
        cell = sch.list_cell(ty)
        if cell is not None and any(not c.arg_types for c in ctors):
            out[ty] = cell.arg_types[0]
    return out


def _typed_positions(sch: Schema, ty: str, view: Tree) -> list[tuple[Path, str]]:
    """Every (path, type) of the well-typed ``view``, sorted by path."""
    out = []
    stack: list[tuple[Path, Tree, str]] = [((), view, ty)]
    while stack:
        p, node, node_ty = stack.pop()
        out.append((p, node_ty))
        if isinstance(node, Node):
            args = sch.constructor(node_ty, node.ctor).arg_types  # type: ignore[union-attr]
            for i, c in enumerate(node.children):
                stack.append((p + (i,), c, args[i]))
    return sorted(out)


def gen_script(
    sch: Schema, view_type: str, view: Tree, length: int, seed: int
) -> list[EditOp]:
    """Random type-correct edit script; paths are drawn from the evolving view."""
    rng = random.Random(seed)
    view_type = sch.resolve(view_type)
    ctx = EditContext(sch, view_type)
    lists = _list_elements(sch)
    ops: list[EditOp] = []
    state = EditState(view, frozenset())
    for _ in range(length):
        positions = _typed_positions(sch, view_type, state.view)
        by_type: dict[str, list] = {}
        for p, ty in positions:
            by_type.setdefault(ty, []).append(p)
        kinds = ["replace"]
        pairs = [
            (a, b)
            for ps in by_type.values()
            for a in ps
            for b in ps
            if a != b and a != b[: len(a)] and b != a[: len(b)]
        ]
        if pairs:
            kinds += ["copy", "move", "swap"]
        spines = []  # (path, type, length) of every list spine
        for p, ty in positions:
            if ty in lists:
                try:
                    spines.append((p, ty, len(_spine(state.view, p)[2])))
                except NotAList:
                    pass
        if spines:
            kinds.append("insert")
            if any(n > 0 for _, _, n in spines):
                kinds.append("delete")
        kind = rng.choice(kinds)
        op: EditOp
        if kind == "replace":
            p, ty = positions[rng.randrange(len(positions))]
            op = Replace(p, _gen_budget(sch, ty, rng))
        elif kind in ("copy", "move", "swap"):
            frm, to = pairs[rng.randrange(len(pairs))]
            if kind == "copy":
                op = Copy(frm, to)
            elif kind == "swap":
                op = Swap(frm, to)
            else:
                op = Move(frm, to, _gen_budget(sch, dict(positions)[frm], rng))
        elif kind == "insert":
            p, ty, n = spines[rng.randrange(len(spines))]
            op = Insert(p, rng.randint(0, n), _gen_budget(sch, lists[ty], rng))
        else:
            candidates = [(p, n) for p, _, n in spines if n > 0]
            p, n = candidates[rng.randrange(len(candidates))]
            op = Delete(p, rng.randrange(n))
        state = apply_op(state, op, ctx)
        ops.append(op)
    return ops


def _gen_budget(sch: Schema, ty: str, rng: random.Random) -> Tree:
    sizes = sch.min_sizes()
    low = sizes.get(ty, 1)
    return _gen(sch, ty, low + rng.randint(0, 6), rng, sizes)


def corrupt_links(ls, seed: int):
    """Replace one link's view pattern with an impossible region."""
    ordered = canonical_links(ls)
    if not ordered:
        return frozenset({Link(Region(Node("ZzBogus"), ()), Region(Node("ZzBogus"), ()))})
    rng = random.Random(seed)
    victim = ordered[rng.randrange(len(ordered))]
    bad = Link(victim.source, Region(Node("ZzBogus"), victim.view.path))
    return frozenset(l for l in ls if l != victim) | {bad}


@dataclass
class TrialReport:
    index: int
    seed: int
    verdicts: dict[str, bool]
    accepted: bool | None = None
    counterexample: dict | None = None

    def failed_laws(self) -> list[str]:
        return [k for k, ok in self.verdicts.items() if not ok]


@dataclass
class LawSummary:
    """Aggregated verdicts of a law run; deterministic per seed."""

    relation: str
    trials: int
    seed: int
    size_bound: int
    script_len: int
    counts: dict[str, list[int]] = field(default_factory=dict)
    accepted: int = 0
    rejected: int = 0
    failures: list[TrialReport] = field(default_factory=list)

    def record(self, law: str, ok: bool) -> None:
        passed, run = self.counts.setdefault(law, [0, 0])
        self.counts[law] = [passed + (1 if ok else 0), run + 1]

    @property
    def ok(self) -> bool:
        return all(passed == run for passed, run in self.counts.values())

    def to_text(self) -> str:
        lines = [f"relation {self.relation}: {self.trials} trials, seed {self.seed}"]
        for law in LAWS:
            if law in self.counts:
                passed, run = self.counts[law]
                lines.append(f"  {law}: {passed}/{run} {'ok' if passed == run else 'FAILED'}")
        lines.append(f"  edited views accepted by check: {self.accepted}/{self.accepted + self.rejected}")
        for f in self.failures[:5]:
            lines.append(f"  counterexample (trial {f.index}, seed {f.seed}): {sorted(f.failed_laws())}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "relation": self.relation,
                "trials": self.trials,
                "seed": self.seed,
                "size_bound": self.size_bound,
                "script_len": self.script_len,
                "counts": {k: self.counts[k] for k in sorted(self.counts)},
                "accepted": self.accepted,
                "rejected": self.rejected,
                "failures": [
                    {
                        "index": f.index,
                        "seed": f.seed,
                        "failed": sorted(f.failed_laws()),
                        "counterexample": f.counterexample,
                    }
                    for f in self.failures
                ],
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


def _put_or_none(lens, s: Tree, v: Tree, ls):
    """put's result, or None where put rejects the links."""
    try:
        return lens.put(s, v, ls)
    except InvalidLinks:
        return None


def _edit_verdicts(lens, s: Tree, st: EditState) -> tuple[bool, dict[str, bool]]:
    """check's answer on the edited view, and the verdicts of the laws that answer calls for."""
    accepted = lens.check(s, st.view, st.links)
    s2 = _put_or_none(lens, s, st.view, st.links)
    if not accepted:
        return False, {"put_iff_check": s2 is None}
    if s2 is None:
        return True, {"correct": False, "retentive": False, "put_iff_check": False}
    v2, ls2 = lens.get(s2)
    retentive = fst_projection(st.links) <= fst_projection(ls2)
    return True, {"correct": v2 == st.view, "retentive": retentive, "put_iff_check": True}


def _minimized(lens, s: Tree, v, ls, ops, ctx) -> dict:
    """Shortest failing script prefix, as rendered text."""
    for k in range(len(ops) + 1):
        prefix = ops[:k]
        try:
            st = apply_script(EditState(v, ls), prefix, ctx)
        except Exception:
            break
        if not all(_edit_verdicts(lens, s, st)[1].values()):
            return {
                "source": render_pattern(s),
                "script": render_script(prefix),
                "links": render_links(st.links),
            }
    return {"source": render_pattern(s), "script": render_script(ops), "links": ""}


def verify_laws(
    lens,
    trials: int,
    size_bound: int = 40,
    script_len: int = 5,
    seed: int = 0,
    adversarial: bool = True,
) -> LawSummary:
    """Run the three lens laws plus check soundness over seeded trials."""
    base = random.Random(seed)
    summary = LawSummary(
        relation=f"{lens.source_type} <---> {lens.view_type}",
        trials=trials,
        seed=seed,
        size_bound=size_bound,
        script_len=script_len,
    )
    ctx = EditContext(lens.view_schema, lens.view_type)
    for i in range(trials):
        trial_seed = base.randrange(1 << 60)
        s = gen_tree(lens.source_schema, lens.source_type, size_bound, trial_seed)
        v, ls = lens.get(s)
        report = TrialReport(index=i, seed=trial_seed, verdicts={})

        report.verdicts["check_get"] = lens.check(s, v, ls)
        report.verdicts["hippocratic"] = _put_or_none(lens, s, v, ls) == s

        if script_len > 0:
            ops = gen_script(lens.view_schema, lens.view_type, v, 1 + trial_seed % script_len, trial_seed + 1)
            st = apply_script(EditState(v, ls), ops, ctx)
            accepted, verdicts = _edit_verdicts(lens, s, st)
            report.accepted = accepted
            report.verdicts.update(verdicts)
            if accepted:
                summary.accepted += 1
            else:
                summary.rejected += 1
            if not all(verdicts.values()):
                report.counterexample = _minimized(lens, s, v, ls, ops, ctx)

        if adversarial:
            bad = corrupt_links(ls, trial_seed + 2)
            rejected = not lens.check(s, v, bad)
            report.verdicts["adversarial"] = _put_or_none(lens, s, v, bad) is None and rejected

        for law, ok in report.verdicts.items():
            summary.record(law, ok)
        if report.failed_laws():
            if report.counterexample is None:
                report.counterexample = {"source": render_pattern(s), "script": "", "links": ""}
            summary.failures.append(report)
    return summary
