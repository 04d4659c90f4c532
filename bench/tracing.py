"""Spans around calls into treelens, recorded from outside the package.

``Tracer.install`` replaces the names that ``treelens.cli``, ``treelens.engine``
and ``treelens.edits`` look up at call time (and the public methods of the
lens classes) with wrappers that open a span; ``uninstall`` puts the
originals back, so untraced rounds run the unmodified code.  Spans stay in
memory: each closed span adds its self time (duration minus the time its
child spans cover) to the current round's record.
"""

from __future__ import annotations

import time

# (module attribute, attribute name, span name).  A target that a later
# version of the package no longer has is skipped; its span then reads 0.
TARGETS = [
    ("cli", "parse_program", "frontend.load"),
    ("cli", "validate_program", "frontend.load"),
    ("frontend", "load_program", "frontend.load"),
    ("cli", "read_tree_file", "text.read_tree_file"),
    ("cli", "write_tree_file", "text.write_tree_file"),
    ("cli", "parse_links", "text.parse_links"),
    ("cli", "render_links", "text.render_links"),
    ("cli", "parse_script", "edits.parse_script"),
    ("cli", "apply_script", "edits.apply_script"),
    ("edits", "apply_script", "edits.apply_script"),
    ("edits", "insert", "edits.insert"),
    ("edits", "delete", "edits.delete"),
    ("edits", "move", "edits.move"),
    ("edits", "swap", "edits.swap"),
    ("edits", "replace", "edits.replace"),
    ("engine", "check_tree_type", "schema.check_tree_type"),
    ("edits", "check_tree_type", "schema.check_tree_type"),
    ("LensHandle", "get", "engine.get"),
    ("LensHandle", "put", "engine.put"),
    ("LensHandle", "check_explain", "engine.check_explain"),
    ("CompositeLens", "get", "compose.get"),
    ("CompositeLens", "put", "compose.put"),
    ("CompositeLens", "check_explain", "compose.check_explain"),
    ("trees", "fst_projection", "trees.fst_projection"),
    ("ops", "eq", "trees.eq"),
]

SPANS = [
    "cli.get", "cli.edit", "cli.put", "frontend.load",
    "text.read_tree_file", "text.write_tree_file", "text.parse_links", "text.render_links",
    "edits.parse_script", "edits.apply_script", "edits.insert", "edits.delete",
    "edits.move", "edits.swap", "edits.replace", "schema.check_tree_type",
    "engine.get", "engine.put", "engine.check_explain",
    "compose.get", "compose.put", "compose.check_explain",
    "trees.eq", "trees.fst_projection",
]

# Parse and validate of one program count as one call of ``frontend.load``.
_PER_PARENT = {"frontend.load"}


class Tracer:
    def __init__(self, owners: dict):
        self.owners = owners  # name in TARGETS -> module, class or namespace object
        self.saved: list = []
        self.stack: list = []  # open spans: [name, start_ns, child_ns, span id]
        self.current: dict | None = None
        self._next_id = 0

    def install(self) -> None:
        for owner_name, attr, span in TARGETS:
            owner = self.owners[owner_name]
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(span, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def wrap(self, span: str, fn):
        def traced(*args, **kwargs):
            self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, time.perf_counter_ns(), 0, self._next_id])

    def exit(self) -> int:
        name, start, child, sid = self.stack.pop()
        dur = time.perf_counter_ns() - start
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            parent_id = 0
        if self.current is not None:
            calls = self.current.setdefault(name, {})
            key = parent_id if name in _PER_PARENT else sid
            self_ns, total_ns = calls.get(key, (0, 0))
            calls[key] = (self_ns + dur - child, total_ns + dur)
        return dur

    def begin_round(self) -> None:
        self.current = {}
        self.enter("round")

    def end_round(self) -> tuple[int, dict]:
        """Close the round; returns its duration and {span: [(self_ns, total_ns) per call]}."""
        dur = self.exit()
        rec = {name: list(calls.values()) for name, calls in self.current.items()}
        self.current = None
        return dur, rec
