#!/usr/bin/env python3
"""Benchmark of treelens sync rounds and law trials, end to end and per module.

Usage, from the repository root:

    python3 bench/run.py --workload addrbook-edit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30 --trace 1

Workloads (see bench/NOTES.md for why each exists):

* ``addrbook-edit`` and ``arith-deep`` drive ``treelens.cli.run`` in-process:
  one round is ``get`` -> ``edit`` -> ``put`` on generated files.  After the
  timed rounds they measure a doubling ladder of smaller documents and send
  one depth probe (a 2,000-element document) through the CLI in a
  subprocess with a wall-clock cap.
* ``laws-small`` calls ``LensHandle``, ``CompositeLens`` and
  ``edits.apply_script`` directly: one round is one law trial.

The load is one process, one thread, a closed loop with one client and no
think time.  Every round's outputs are checked against references the
benchmark computes itself (``workloads.py``, ``treetext.py``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round runs twice, untraced and
traced, and the JSON carries the per-layer metrics.  Exit codes: 0 done,
2 the checkout lacks what the benchmark needs, 3 the run's counts were not
deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import treetext as tt  # noqa: E402
import workloads as wl  # noqa: E402
from clock import NOMINAL_KERNEL_NS, Clock  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402

WORKLOADS = ("addrbook-edit", "arith-deep", "laws-small")
SETUP_REPS = 5
LADDER_SHARE = 0.1  # of --seconds, spent on the rungs below the stated size
LADDER_MIN_ROUNDS = 5
PROBE_CAP_S = 10.0
WALL_GUARD_S = 120.0  # stop starting rounds after this much wall time
COUNTED_ROUNDS = {"addrbook-edit": 8, "arith-deep": 8, "laws-small": 200}
END_TO_END = {
    "setup_s": "s", "round_ms_p50": "ms", "round_ms_p90": "ms", "rounds_per_s": "1/s",
    "get_ms_p50": "ms", "edit_ms_p50": "ms", "put_ms_p50": "ms", "peak_rss_mb": "MB",
}
COUNTS = ["source_nodes", "view_nodes", "links_out", "links_in", "rejected", "ops",
          "links_before", "links_kept", "links_in_edited", "retained"]


class BenchError(Exception):
    """The checkout cannot be benchmarked; exit 2 without a result."""


TL = types.SimpleNamespace()
OPS = types.SimpleNamespace(eq=lambda a, b: a == b)


def import_treelens() -> float:
    pkg = ROOT / "src" / "treelens"
    for need in (pkg / "__init__.py", ROOT / "lens_examples"):
        if not need.exists():
            raise BenchError(f"{need.relative_to(ROOT)} is missing: run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    for mod in ("cli", "engine", "edits", "trees", "frontend", "compose", "harness"):
        setattr(TL, mod, importlib.import_module(f"treelens.{mod}"))
    elapsed = time.perf_counter() - t0
    if Path(TL.cli.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported treelens from {TL.cli.__file__}, not from this checkout")
    return elapsed


def owners() -> dict:
    return {"cli": TL.cli, "engine": TL.engine, "edits": TL.edits, "trees": TL.trees,
            "frontend": TL.frontend, "LensHandle": TL.engine.LensHandle,
            "CompositeLens": TL.compose.CompositeLens, "ops": OPS}


def to_lib(t: object):
    """treelens tree for a plain-value tree; iterative."""
    trees = TL.trees
    done: list = []
    stack: list = [(t, False)]
    while stack:
        v, expanded = stack.pop()
        if isinstance(v, str):
            done.append(trees.StrLeaf(v))
        elif isinstance(v, int):
            done.append(trees.IntLeaf(v))
        elif expanded:
            k = len(v) - 1
            kids = tuple(done[len(done) - k:]) if k else ()
            del done[len(done) - k:]
            done.append(trees.Node(v[0], kids))
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(v[1:]))
    return done[0]


class Round:
    """Timings, counts and verdict of one round.

    A round's time is the sum of its timed calls into treelens; the
    benchmark's own steps between them are not timed.  ``sc`` holds each
    call's scaled time (see clock.py) by kind, ``raw`` the round's wall time.
    """

    def __init__(self):
        self.sc: dict = {k: [] for k in ("get", "edit", "put", "other")}
        self.raw = 0
        self.scaled = 0.0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.error: str | None = None
        self.spans: dict = {}
        self.root_ns = 0  # a traced round's root span, glue between the calls included

    def add(self, kind: str, ns: int, scale: float) -> None:
        self.sc[kind].append(ns * scale)
        self.raw += ns
        self.scaled += ns * scale


class Series:
    """Untraced rounds, kept compact so the benchmark's own records hardly move peak RSS.

    Counts are summed over the first ``counted`` rounds only, so they do not
    depend on how many rounds fit in the run.
    """

    def __init__(self, counted: int):
        self.counted = counted
        self.scaled = {k: array("d") for k in ("round", "get", "edit", "put")}
        self.raw = array("d")
        self.counts = dict.fromkeys(COUNTS + ["failed"], 0)
        self.errors: list[str] = []

    def __len__(self) -> int:
        return len(self.raw)

    def add(self, r: Round) -> None:
        if len(self.raw) < self.counted:
            for k in COUNTS:
                self.counts[k] += r.counts[k]
            self.counts["failed"] += r.error is not None
        self.raw.append(r.raw)
        self.scaled["round"].append(r.scaled)
        for k in ("get", "edit", "put"):
            self.scaled[k].extend(r.sc[k])
        if r.error:
            self.errors.append(r.error)


class Meter:
    """Times calls into treelens, one at a time.

    An untraced round samples the clock between its calls whenever a sample
    is due, so each call is scaled by the samples around it.  A traced round
    never samples, so its spans cover only treelens, and uses the latest one.
    """

    def __init__(self, clock: Clock, sampling: bool):
        self.clock, self.sampling = clock, sampling

    def __call__(self, rnd: Round, kind: str, fn, *args):
        before = self.clock.before() if self.sampling else None
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            ns = time.perf_counter_ns() - t0
            rnd.add(kind, ns, self.clock.after(ns, before) if self.sampling else self.clock.scale())


def _traced_round(tracer: Tracer | None, rnd: Round, body) -> None:
    """Run ``body``; with a tracer, as the root span of the spans it records."""
    if tracer is None:
        body()
        return
    tracer.install()
    tracer.begin_round()
    try:
        body()
    finally:
        rnd.root_ns, rnd.spans = tracer.end_round()
        tracer.uninstall()


# ---------------------------------------------------------------------------
# CLI workloads


class Rung:
    """One document of a CLI workload, written to its own directory."""

    def __init__(self, doc: wl.Doc, size: int, where: Path):
        self.doc, self.size = doc, size
        where.mkdir(parents=True, exist_ok=True)
        self.f = {k: str(where / k) for k in (
            "source.tree", "view.tree", "view.links", "script.edits", "view2.tree",
            "view2.links", "source2.tree")}
        Path(self.f["source.tree"]).write_text(tt.render_tree_file(doc.source), encoding="utf-8")
        self.verified_get: tuple | None = None

    def argv(self, lens: str, rel: tuple) -> list[list[str]]:
        f = self.f
        return [
            ["get", "-p", lens, "-r", *rel, "-i", f["source.tree"], "-o", f["view.tree"],
             "-l", f["view.links"]],
            ["edit", "-v", f["view.tree"], "-l", f["view.links"], "-e", f["script.edits"],
             "-o", f["view2.tree"], "-m", f["view2.links"], "-p", lens, "-r", *rel],
            ["put", "-p", lens, "-r", *rel, "-s", f["source.tree"], "-v", f["view2.tree"],
             "-l", f["view2.links"], "-o", f["source2.tree"]],
        ]


def cli_call(argv: list[str], tracer: Tracer | None):
    """Exit code of one in-process CLI command, or the name of what it raised."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.enter("cli." + argv[0])
        try:
            return TL.cli.run(argv)
        except Exception as e:  # the CLI lets some errors escape; count them, never abort
            return type(e).__name__
        finally:
            if tracer is not None:
                tracer.exit()


def cli_round(w, rung: Rung, edit: tuple, tracer: Tracer | None, meter: Meter) -> Round:
    script, exp_view, exp_source, n_ops = edit
    for name, path in rung.f.items():  # no output of an earlier round can pass a check
        if name != "source.tree":
            Path(path).unlink(missing_ok=True)
    Path(rung.f["script.edits"]).write_text(script, encoding="utf-8")
    rnd = Round()
    codes: list = []

    def body():
        for kind, argv in zip(("get", "edit", "put"), rung.argv(w.lens, w.relation)):
            code = meter(rnd, kind, cli_call, argv, tracer)
            codes.append(code)
            if code != 0:
                break

    _traced_round(tracer, rnd, body)
    c = rnd.counts
    c["source_nodes"], c["view_nodes"], c["ops"] = rung.doc.source_nodes, rung.doc.view_nodes, n_ops
    if codes != [0, 0, 0]:
        step = ("get", "edit", "put")[len(codes) - 1]
        rnd.error = f"{step} ended with {codes[-1]}"
        c["rejected"] = int(step == "put" and codes[-1] == 3)
        return rnd
    rnd.error = check_cli_outputs(rung, exp_view, exp_source, c)
    return rnd


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def check_cli_outputs(rung: Rung, exp_view, exp_source, c: dict) -> str | None:
    """Check a round's files against the references; fills the counts."""
    doc = rung.doc
    got = (_read(rung.f["view.tree"]), _read(rung.f["view.links"]))
    if got != rung.verified_get:
        if tt.parse_tree(got[0]) != doc.view:
            return "get: view differs from the reference view"
        if tt.parse_links(got[1]) != doc.links:
            return "get: links differ from the reference links"
        rung.verified_get = got
    c["links_out"] = c["links_before"] = len(doc.links)
    if tt.parse_tree(_read(rung.f["view2.tree"])) != exp_view:
        return "edit: view differs from the reference edit"
    edited = tt.parse_links(_read(rung.f["view2.links"]))
    c["links_in"] = c["links_in_edited"] = c["links_kept"] = len(edited)
    if tt.parse_tree(_read(rung.f["source2.tree"])) != exp_source:
        return "put: source differs from the reference (a retained region was not verbatim)"
    view2, links2 = wl.ref_get(doc.rules, doc.sty, exp_source)
    if view2 != exp_view:
        return "put: correctness fails, get of the new source is not the edited view"
    kept = wl.projection(links2)
    c["retained"] = sum(1 for p in wl.projection(edited) if p in kept)
    if c["retained"] != len(wl.projection(edited)):
        return "put: retention fails, an edited link is missing from the new source's links"
    return None


class CliWorkload:
    def __init__(self, name: str, cls, rungs: list[int], probe: int, make_doc):
        self.name, self.cls, self.rungs, self.probe_size, self.make_doc = name, cls, rungs, probe, make_doc
        self.lens = str(ROOT / "lens_examples" / cls.lens_file)
        self.relation = cls.relation


CLI_WORKLOADS = {
    "addrbook-edit": CliWorkload("addrbook-edit", wl.AddrBook, [1, 2, 4, 8], 2000,
                                 lambda rng, n: wl.AddrBook(rng, groups=n, per_group=16)),
    "arith-deep": CliWorkload("arith-deep", wl.Arith, [16, 32, 64, 128], 2000,
                              lambda rng, n: wl.Arith(rng, terms=n)),
}


def make_probe_doc(w: CliWorkload, seed: int):
    rng = random.Random(f"{seed}:{w.name}:probe")
    if w.cls is wl.AddrBook:
        return wl.AddrBook(rng, groups=1, per_group=w.probe_size)
    return wl.Arith(rng, terms=w.probe_size)


def run_probe(w: CliWorkload, seed: int, work: Path) -> str | None:
    """One CLI round on a 2,000-element document in a capped subprocess; None if it passed."""
    doc = make_probe_doc(w, seed)
    rung = Rung(doc, w.probe_size, work / "probe")
    # One cheap edit: a swap of two contacts, or a literal replaced.
    probe_round = 3 if w.cls is wl.AddrBook else 1
    script, exp_view, exp_source, _ = doc.round_edit(random.Random(f"{seed}:{w.name}:probe-edit"), probe_round)
    Path(rung.f["script.edits"]).write_text(script, encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "probe.py"), json.dumps(rung.argv(w.lens, w.relation))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_CAP_S,
                              cwd=str(work), env={"PYTHONPATH": str(ROOT / "src")})
    except subprocess.TimeoutExpired:
        return f"no result within {PROBE_CAP_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"probe process exited with {proc.returncode}"
    codes = json.loads(lines[-1])
    if codes != [0, 0, 0]:
        step = ("get", "edit", "put")[len(codes) - 1]
        return f"{step} ended with {codes[-1]}"
    if tt.parse_tree(_read(rung.f["view2.tree"])) != exp_view:
        return "edit: view differs from the reference edit"
    if tt.parse_tree(_read(rung.f["source2.tree"])) != exp_source:
        return "put: source differs from the reference"
    return None


def setup_cli(w: CliWorkload, seed: int, work: Path, meter: Meter) -> tuple[dict, Round]:
    rungs = {}
    for n in w.rungs:
        doc = w.make_doc(random.Random(f"{seed}:{w.name}:{n}"), n)
        rungs[n] = Rung(doc, n, work / f"rung{n}")
    top = rungs[w.rungs[-1]]
    warm = cli_round(w, top, top.doc.round_edit(random.Random(f"{seed}:{w.name}:warm"), 0), None, meter)
    return rungs, warm


# ---------------------------------------------------------------------------
# laws-small


def load_program(name: str, loads: list | None):
    """Parse and validate one shipped program; traced when ``loads`` collects records."""
    text = _read(str(ROOT / "lens_examples" / name))
    if loads is None:
        return TL.frontend.load_program(text, name)
    tracer = Tracer(owners())
    tracer.install()
    tracer.begin_round()
    try:
        return TL.frontend.load_program(text, name)
    finally:
        loads.append(tracer.end_round()[1])
        tracer.uninstall()


class LawLib:
    def __init__(self, loads: list | None):
        sugar = load_program("sugarlang.lens", loads)
        mirror = load_program("mirror.lens", loads)
        self.sugar = TL.engine.lens(sugar, "SProg", "AProg")
        m = TL.engine.lens(mirror, "BinT Int", "BinT Int")
        self.mirror2 = TL.compose.CompositeLens(m, m)
        self.ctx = {
            wl.SugarTrial: TL.edits.EditContext(sugar.schema, self.sugar.view_type),
            wl.MirrorTrial: TL.edits.EditContext(mirror.schema, m.view_type),
        }


def make_trial(seed: int, i: int):
    # Exactly one trial in each block of five, at a seeded place, is a mirror∘mirror one.
    block, place = divmod(i, 5)
    rng = random.Random(f"{seed}:laws:{i}")
    mirror = random.Random(f"{seed}:laws-block:{block}").randrange(5) == place
    tr = wl.MirrorTrial(rng) if mirror else wl.SugarTrial(rng)
    tr.lib_source = to_lib(tr.doc.source)
    ed = TL.edits
    if tr.op[0] == "move":
        tr.lib_op = ed.Move(tr.op[1], tr.op[2], to_lib(tr.op[3]))
    else:
        tr.lib_op = ed.Swap(tr.op[1], tr.op[2])
    return tr


def law_trial(lib: LawLib, tr, tracer: Tracer | None, meter: Meter) -> Round:
    """get -> check -> put(s, get s) == s -> edit -> check -> put -> get -> laws."""
    L = lib.mirror2 if isinstance(tr, wl.MirrorTrial) else lib.sugar
    ctx = lib.ctx[type(tr)]
    s = tr.lib_source
    rnd = Round()
    out: dict = {}

    def body():
        ed, trees = TL.edits, TL.trees
        v, ls = meter(rnd, "get", L.get, s)
        out["check_get"] = meter(rnd, "other", L.check, s, v, ls)
        s_h = meter(rnd, "put", L.put, s, v, ls)
        out["hippocratic"] = meter(rnd, "other", OPS.eq, s_h, s)
        st = meter(rnd, "edit", ed.apply_script, ed.EditState(v, ls), [tr.lib_op], ctx)
        out["check_edit"] = meter(rnd, "other", L.check, s, st.view, st.links)
        s2 = meter(rnd, "put", L.put, s, st.view, st.links)
        v2, ls2 = meter(rnd, "get", L.get, s2)
        out["correct"] = meter(rnd, "other", OPS.eq, v2, st.view)
        out["retentive"] = meter(rnd, "other", lambda: trees.fst_projection(st.links)
                                 <= trees.fst_projection(ls2))
        out.update(v=v, ls=ls, s_h=s_h, st=st, s2=s2, v2=v2, ls2=ls2)

    try:
        _traced_round(tracer, rnd, body)
    except TL.engine.InvalidLinks as e:
        rnd.error = f"put rejected: {e}"
        rnd.counts["rejected"] = 1
        return rnd
    except Exception as e:  # a crash is a failed trial, never an aborted run
        rnd.error = f"{type(e).__name__}: {e}"
        return rnd
    rnd.error = check_law_outputs(tr, out, rnd.counts)
    return rnd


def check_law_outputs(tr, out: dict, c: dict) -> str | None:
    failed = [k for k in ("check_get", "hippocratic", "check_edit", "correct", "retentive") if not out[k]]
    if failed:
        return "law verdicts failed: " + ", ".join(failed)
    doc = tr.doc
    ls, edited, ls2 = (tt.links_from_lib(x) for x in (out["ls"], out["st"].links, out["ls2"]))
    c.update(source_nodes=doc.source_nodes + tt.node_count(tr.expected_source),
             view_nodes=doc.view_nodes + tt.node_count(tr.expected_view),
             links_out=len(ls) + len(ls2), links_in=len(ls) + len(edited), ops=1,
             links_before=len(ls), links_kept=len(edited), links_in_edited=len(edited))
    if tt.from_lib(out["v"]) != doc.view or ls != doc.links:
        return "get differs from the reference view and links"
    if tt.from_lib(out["s_h"]) != doc.source:
        return "hippocraticness fails against the generated source"
    if tt.from_lib(out["st"].view) != tr.expected_view:
        return "edit differs from the reference edit"
    if tt.from_lib(out["s2"]) != tr.expected_source:
        return "put differs from the reference source (a retained region was not verbatim)"
    if tt.from_lib(out["v2"]) != tr.expected_view or ls2 != tr.expected_links:
        return "get of the new source differs from the reference"
    kept = wl.projection(ls2)
    c["retained"] = sum(1 for p in wl.projection(edited) if p in kept)
    if c["retained"] != len(wl.projection(edited)):
        return "retention fails against the reference links"
    return None


# ---------------------------------------------------------------------------
# Statistics and the report


def median_ms(ns: list) -> float:
    return statistics.median(ns) / 1e6 if ns else 0.0


def p90_ms(ns: list) -> tuple[float, int]:
    """90th percentile in ms and the number of samples above it.

    The inclusive method interpolates between observed values; with the 20
    or so rounds of ``arith-deep`` the exclusive one leans on the maximum.
    """
    if len(ns) < 2:
        return median_ms(ns), 0
    q = statistics.quantiles(ns, n=10, method="inclusive")[8]
    return q / 1e6, sum(1 for x in ns if x > q)


def slope(xs: list, ys: list) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den if den else 0.0


def span_metrics(rounds: list[Round], extra: list[tuple[dict, float]]) -> dict:
    """``.ms`` (median scaled self time per call) and ``.share`` (of round time) per span."""
    total = sum(r.root_ns for r in rounds) or 1
    out = {}
    for name in SPANS:
        calls = [s * r.scaled / r.raw for r in rounds for s, _ in r.spans.get(name, ())]
        calls += [s * scale for rec, scale in extra for s, _ in rec.get(name, ())]
        out[f"{name}.ms"] = median_ms(calls)
        out[f"{name}.share"] = sum(s for r in rounds for s, _ in r.spans.get(name, ())) / total
    return out


def span_total_ms(rounds: list[Round], name: str) -> float:
    """Median scaled inclusive time per call of a span, for growth exponents."""
    return median_ms([t * r.scaled / r.raw for r in rounds for _, t in r.spans.get(name, ())])


class Run:
    def __init__(self, args):
        self.name = args.workload
        self.seed = args.seed
        self.budget_ns = args.seconds * 1e9
        self.trace = bool(args.trace)
        self.start = time.perf_counter()
        self.work = ROOT / ".bench_work" / f"{self.name}-{os.getpid()}"
        self.clock = Clock()

    def say(self, line: str) -> None:
        print(line, flush=True)

    def wall(self) -> float:
        return time.perf_counter() - self.start

    def measure(self, make_round, budget_ns: float, min_rounds: int) -> tuple[Series, Series, list]:
        """Closed loop: rounds until their time reaches the budget.

        Returns the untraced rounds, the traced ones, and the traced Round
        records with their spans.  In a traced run each round runs twice on
        the same input, untraced and traced, so the pair gives the tracing
        overhead; which of the two goes first alternates, so that the second
        run's warmer caches do not bias it.
        """
        counted = COUNTED_ROUNDS[self.name]
        plain, traced, spans = Series(counted), Series(counted), []
        spent, i = 0, 0
        while (spent < budget_ns or i < min_rounds) and self.wall() < WALL_GUARD_S:
            order = (False, True) if i % 2 == 0 else (True, False)
            for with_trace in order if self.trace else (False,):
                if with_trace:
                    r = make_round(i, Tracer(owners()), Meter(self.clock, False))
                    traced.add(r)
                    spans.append(r)
                else:
                    r = make_round(i, None, Meter(self.clock, True))
                    plain.add(r)
                spent += r.raw
            i += 1
        return plain, traced, spans

    def execute(self) -> dict:
        import_s = import_treelens()
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            if self.name == "laws-small":
                return self.execute_laws(import_s)
            return self.execute_cli(CLI_WORKLOADS[self.name], import_s)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def setup_times(self, do_setup) -> tuple[list[float], object]:
        """Set up several times; (scaled seconds of each repetition, the last one's result)."""
        reps, result = [], None
        before = self.clock.sample()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            result = do_setup(Meter(self.clock, False))
            wall = time.perf_counter() - t0
            after = self.clock.sample()
            reps.append(wall * 2 / (1 / before + 1 / after))
            before = after
        # The benchmark's own long-lived data (documents, references) should not
        # make the collector's passes during the rounds longer.
        gc.collect()
        gc.freeze()
        return reps, result

    def execute_cli(self, w: CliWorkload, import_s: float) -> dict:
        seed = self.seed
        reps, (rungs, warm) = self.setup_times(lambda meter: setup_cli(w, seed, self.work, meter))
        top = rungs[w.rungs[-1]]

        def top_round(i, tracer, meter):
            edit = top.doc.round_edit(random.Random(f"{seed}:{w.name}:round{i}"), i)
            return cli_round(w, top, edit, tracer, meter)

        plain, traced, spans = self.measure(top_round, self.budget_ns * (1 - LADDER_SHARE),
                                            COUNTED_ROUNDS[self.name])
        ladder = []
        for n in w.rungs[:-1]:
            rung = rungs[n]

            def rung_round(i, tracer, meter, rung=rung, n=n):
                edit = rung.doc.round_edit(random.Random(f"{seed}:{w.name}:{n}:round{i}"), i)
                return cli_round(w, rung, edit, tracer, meter)

            budget = self.budget_ns * LADDER_SHARE / (len(w.rungs) - 1)
            rung_plain, _, rung_spans = self.measure(rung_round, budget, LADDER_MIN_ROUNDS)
            ladder.append((rung, rung_plain, rung_spans))
        ladder.append((top, plain, spans))
        probe_error = run_probe(w, seed, self.work)
        return self.report(import_s, reps, [warm], plain, traced, spans, ladder, probe_error)

    def execute_laws(self, import_s: float) -> dict:
        seed = self.seed
        loads: list = []  # (span record, scale) of each program load, traced runs only

        def do_setup(meter):
            recs: list = []
            lib = LawLib(recs if self.trace else None)
            loads.extend((rec, self.clock.scale()) for rec in recs)
            warm = [law_trial(lib, make_trial(seed, -1 - k), None, meter) for k in range(50)]
            return lib, warm

        reps, (lib, warm) = self.setup_times(do_setup)
        last: dict = {}

        def trial_round(i, tracer, meter):
            if i not in last:
                last.clear()
                last[i] = make_trial(seed, i)
            return law_trial(lib, last[i], tracer, meter)

        plain, traced, spans = self.measure(trial_round, self.budget_ns, COUNTED_ROUNDS[self.name])
        verify_ms = 0.0
        if self.trace:
            trials = 30
            scale = self.clock.sample()
            t0 = time.perf_counter()
            TL.harness.verify_laws(lib.sugar, trials, size_bound=40, script_len=5, seed=0)
            verify_ms = (time.perf_counter() - t0) * 1e3 * scale / trials
        return self.report(import_s, reps, warm, plain, traced, spans, None, None,
                           loads=loads, verify_ms=verify_ms)

    def report(self, import_s, reps, warm, plain, traced, spans, ladder, probe_error,
               loads=(), verify_ms=0.0) -> dict:
        counts = plain.counts
        rungs_info = None
        if ladder is not None:
            rungs_info = [(r.size, r.doc.source_nodes, r.doc.view_nodes, len(r.doc.links))
                          for r, _, _ in ladder]
        # A probe that hit the wall-clock cap says nothing about determinism.
        probe_sig = None if probe_error is None or probe_error.startswith("no result") else probe_error
        signature = {"counts": counts, "probe": probe_sig, "rungs": rungs_info,
                     "warm_failed": sum(1 for r in warm if r.error)}
        if self.trace and traced.counts != counts:
            raise NonDeterministic(f"traced counts {traced.counts} differ from untraced {counts}")
        check_signature(self.name, self.seed, signature)

        failures = plain.errors + traced.errors + [r.error for r in warm if r.error]
        attempted = len(plain) + len(traced)
        failed = len(plain.errors) + len(traced.errors)
        round_ns = plain.scaled["round"]
        p90, above = p90_ms(round_ns)
        e2e = {
            "setup_s": statistics.median(reps),
            "round_ms_p50": median_ms(round_ns),
            "round_ms_p90": p90,
            "rounds_per_s": len(round_ns) / (sum(round_ns) / 1e9),
            "get_ms_p50": median_ms(plain.scaled["get"]),
            "edit_ms_p50": median_ms(plain.scaled["edit"]),
            "put_ms_p50": median_ms(plain.scaled["put"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        probes = int(ladder is not None)
        ops_failed = (failed + (probe_error is not None)) / (attempted + probes)

        self.say(f"workload {self.name}  seed {self.seed}  trace {int(self.trace)}  "
                 f"{len(plain)} timed rounds, {attempted} attempted, {failed} failed")
        self.say(f"  import {import_s:.3f} s wall; setup repetitions "
                 + " ".join(f"{x:.3f}" for x in reps) + " s scaled")
        kernel = statistics.median(self.clock.kernel_ns) / 1e6
        self.say(f"  calibration kernel median {kernel:.3f} ms over {len(self.clock.kernel_ns)} samples "
                 f"(times below are scaled to {NOMINAL_KERNEL_NS / 1e6:.3f} ms); "
                 f"unscaled round p50 {median_ms(plain.raw):.4f} ms")
        for name, unit in END_TO_END.items():
            extra = f"   ({above} of {len(round_ns)} rounds above)" if name == "round_ms_p90" else ""
            self.say(f"  {name:<16} {e2e[name]:>12.4f} {unit}{extra}")
        layer: dict = {"ops_failed_ratio": ops_failed}
        if ladder is not None:
            xs, ys = [], []
            for (rung, pl, _tr), info in zip(ladder, rungs_info):
                med = median_ms(pl.scaled["round"])
                xs.append(rung.doc.source_nodes)
                ys.append(med)
                self.say(f"  rung {info[0]:>4}: {info[1]:>6} source nodes {info[2]:>6} view nodes "
                         f"{info[3]:>6} links  round {med:9.3f} ms over {len(pl)} rounds")
            layer["round_exp"] = slope(xs, ys)
            self.say(f"  round_exp        {layer['round_exp']:>12.4f} -")
            verdict = "passed" if probe_error is None else f"FAILED: {probe_error}"
            self.say(f"  depth probe ({make_probe_label(self.name)}): {verdict}")
        self.say(f"  ops_failed_ratio {ops_failed:>12.6f} -   ({failed} failed rounds, "
                 f"{int(probe_error is not None)} failed probes, of {attempted + probes})")
        for msg in sorted(set(failures))[:5]:
            self.say(f"  failure: {msg}")

        result = {"correct": not failures, "attempted": attempted, "failed": failed}
        if not self.trace:
            result["metrics"] = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
            return result

        layer.update(self.layer_metrics(plain, spans, ladder, loads, counts, verify_ms))
        for key in sorted(layer):
            self.say(f"  {key:<36} {layer[key]:.6g}")
        result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
        return result

    def layer_metrics(self, plain, spans, ladder, loads, counts, verify_ms) -> dict:
        out = span_metrics(spans, list(loads))
        out["harness.verify_laws.ms_per_trial"] = verify_ms
        for name in ("engine.get", "engine.put", "edits.apply_script"):
            exp = 0.0
            if ladder is not None:
                pts = [(r.doc.source_nodes, span_total_ms(tr, name)) for r, _, tr in ladder]
                if all(y > 0 for _, y in pts):
                    exp = slope([x for x, _ in pts], [y for _, y in pts])
            out[f"{name}.exp"] = exp
        if ladder is None:
            out["round_exp"] = 0.0
        for key in ("source_nodes", "view_nodes", "links_out", "links_in"):
            out[f"engine.{key}"] = counts[key]
        out["engine.put.rejected"] = counts["rejected"]
        out["edits.ops"] = counts["ops"]
        out["engine.retained_ratio"] = counts["retained"] / max(counts["links_in_edited"], 1)
        out["edits.links_kept_ratio"] = counts["links_kept"] / max(counts["links_before"], 1)
        # Each traced round ran right after the same round untraced.
        pairs = list(zip(plain.raw, spans))
        overhead = statistics.median(t.raw / p - 1 for p, t in pairs)
        out["trace.overhead_ratio"] = overhead
        # Span accounting: the layers' self times in a traced round, against the
        # same round untraced, may differ by no more than the tracing overhead.
        gap = statistics.median(
            sum(s for name, calls in t.spans.items() if name != "round" for s, _ in calls) / p - 1
            for p, t in pairs)
        verdict = "within" if abs(gap) <= abs(overhead) else "OUTSIDE"
        self.say(f"  span accounting: layer self times sum to {gap:+.4%} of the untraced round "
                 f"(median over pairs), {verdict} the tracing overhead {overhead:+.4%}")
        return out


def make_probe_label(name: str) -> str:
    return "2,000 persons in one group" if name == "addrbook-edit" else "2,000-term sum"


def layer_unit(key: str) -> str:
    if key.endswith((".ms", ".ms_per_trial")):
        return "ms"
    if key.endswith(("ratio", ".share")):
        return "ratio"
    return "exponent" if key.endswith(("exp", "_exp")) else "count"


class NonDeterministic(Exception):
    pass


def _code_digest() -> str:
    h = hashlib.sha256()
    for base in (BENCH, ROOT / "src" / "treelens", ROOT / "lens_examples"):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".py", ".lens"):
                h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()[:16]


def check_signature(name: str, seed: int, signature: dict) -> None:
    """Counts for one seed must repeat across runs of the same code."""
    path = ROOT / ".bench_work" / "signatures" / f"{name}-{seed}-{_code_digest()}.json"
    text = json.dumps(signature, sort_keys=True)
    if path.exists():
        if path.read_text(encoding="utf-8") != text:
            raise NonDeterministic(f"counts for seed {seed} differ from an earlier run: "
                                   f"{path.read_text(encoding='utf-8')} vs {text}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    try:
        result = Run(args).execute()
    except BenchError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    except NonDeterministic as e:
        print(f"benchmark error, results not deterministic: {e}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
