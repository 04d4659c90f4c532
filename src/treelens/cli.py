"""Command-line front door.

Subcommands: ``validate``, ``get``, ``put``, ``edit``, ``laws``.  On the last
four, ``-r S V`` names a relation, and a chain of ``-r``s names the composite
of its relations, folded left: ``-r A B -r B C -r C D`` runs
``CompositeLens(CompositeLens(A<--->B, B<--->C), C<--->D)``.
Exit codes: 0 success, 1 usage/parse error (and failed law runs, and inputs
nested too deeply to process), 2 validation failure, 3 rejected links, 4 type
error.  Each failure gets its exit code and the prefix of its one-line
message from one table, ``_FAILURES``; a failed edit step whose cause is a
type error is a type error.  Diagnostics go to standard error as
``file:line:col: code: message``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path as FsPath

from .compose import CompositeLens, CompositionTypeError
from .edits import (
    EditContext,
    EditError,
    EditScriptError,
    EditState,
    apply_script,
    parse_script,
)
from .engine import IllTypedInput, InvalidLinks, UnknownRelation, lens
from .frontend import ValidationError, parse_program, validate_program
from .harness import verify_laws
from .schema import IllTyped
from .text import LensSyntaxError, parse_links, read_tree_file, render_links, write_tree_file
from .trees import TreeError


class _Usage(Exception):
    pass


class _FileError(Exception):
    """A file that cannot be read or written; the message says why."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _Usage(message)


_CHAIN = dict(nargs=2, metavar=("S", "V"), action="append", help="repeat to compose a chain")


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    top = _Parser(prog="treelens", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a program")
    p.add_argument("program")

    p = sub.add_parser("get", help="compute the view and links of a source")
    p.add_argument("-p", "--program", required=True)
    p.add_argument("-r", "--relation", required=True, **_CHAIN)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("-l", "--links")

    p = sub.add_parser("put", help="write a view back into a source")
    p.add_argument("-p", "--program", required=True)
    p.add_argument("-r", "--relation", required=True, **_CHAIN)
    p.add_argument("-s", "--source", required=True)
    p.add_argument("-v", "--view", required=True)
    p.add_argument("-l", "--links")
    p.add_argument("-o", "--output")

    p = sub.add_parser("edit", help="apply an edit script to a view and its links")
    p.add_argument("-v", "--view", required=True)
    p.add_argument("-l", "--links", required=True)
    p.add_argument("-e", "--script", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("-m", "--links-out")
    p.add_argument("-p", "--program")
    p.add_argument("-r", "--relation", **_CHAIN)

    p = sub.add_parser("laws", help="run the randomized law suite")
    p.add_argument("-p", "--program", required=True)
    p.add_argument("-r", "--relation", required=True, **_CHAIN)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--script-len", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summary")

    return top


def _read(path: str) -> str:
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _FileError(f"cannot read {FsPath(path)}") from None
    except OSError as e:
        raise _FileError(f"cannot read {FsPath(path)}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _FileError(f"cannot read {FsPath(path)}: not UTF-8 text (byte {e.start})") from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        FsPath(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _FileError(f"cannot write {FsPath(path)}: {e.strerror}") from None


def _load(path: str):
    program = parse_program(_read(path), path)
    validated = validate_program(program)
    for w in validated.warnings:
        print(w.format(path), file=sys.stderr)
    return validated


def _cmd_validate(args) -> int:
    _load(args.program)
    print(f"{args.program}: ok")
    return 0


def _lens(args):
    """The lens a command runs: the composite of its ``-r`` chain, folded left."""
    vp = _load(args.program)
    h, *rest = [lens(vp, *r) for r in args.relation]
    for k, nxt in enumerate(rest, start=1):  # h has the view type of the k-th -r
        if h.view_type != nxt.source_type:
            (s1, v1), (s2, v2) = args.relation[k - 1 : k + 1]
            raise CompositionTypeError(f"view type {h.view_type} of -r {k} ({s1} <---> {v1}) differs "
                                       f"from source type {nxt.source_type} of -r {k + 1} ({s2} <---> {v2})")
        h = CompositeLens(h, nxt)
    return h


def _cmd_get(args) -> int:
    h = _lens(args)
    s = read_tree_file(_read(args.input))
    view, links = h.get(s)
    _write(args.output, write_tree_file(view))
    _write(args.links, render_links(links))
    return 0


def _cmd_put(args) -> int:
    h = _lens(args)
    s = read_tree_file(_read(args.source))
    v = read_tree_file(_read(args.view))
    links = parse_links(_read(args.links)) if args.links else frozenset()
    _write(args.output, write_tree_file(h.put(s, v, links)))
    return 0


def _cmd_edit(args) -> int:
    if bool(args.program) != bool(args.relation):
        raise _Usage("edit -p needs -r" if args.program else "edit -r needs -p")
    view = read_tree_file(_read(args.view))
    links = parse_links(_read(args.links))
    ops = parse_script(_read(args.script))
    ctx = None
    if args.program:
        h = _lens(args)
        ctx = EditContext(h.view_schema, h.view_type)
    state = apply_script(EditState(view, links), ops, ctx)
    _write(args.output, write_tree_file(state.view))
    _write(args.links_out, render_links(state.links))
    return 0


def _cmd_laws(args) -> int:
    for flag, least in (("trials", 1), ("size", 0), ("script_len", 0)):
        if getattr(args, flag) < least:
            raise _Usage(f"--{flag.replace('_', '-')} must be at least {least}")
    if args.summary:  # a summary that cannot be written fails before the trials
        out = FsPath(args.summary)
        if out.is_dir() or not out.parent.is_dir():
            why = "Is a directory" if out.is_dir() else "No such file or directory"
            raise _FileError(f"cannot write {out}: {why}")
    h = _lens(args)
    summary = verify_laws(
        h, args.trials, size_bound=args.size, script_len=args.script_len, seed=args.seed
    )
    sys.stdout.write(summary.to_text())
    if args.summary:
        _write(args.summary, summary.to_json())
    return 0 if summary.ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "get": _cmd_get,
    "put": _cmd_put,
    "edit": _cmd_edit,
    "laws": _cmd_laws,
}


# Each failure's exit code and the prefix of its message, the first row that matches.
_FAILURES = (
    ((_Usage,), 1, "usage error: "),
    ((LensSyntaxError, _FileError), 1, ""),
    ((ValidationError,), 2, ""),
    ((UnknownRelation,), 2, "unknown relation: "),
    ((CompositionTypeError,), 2, "relations do not chain: "),
    ((InvalidLinks,), 3, "links rejected: "),
    ((IllTypedInput, IllTyped), 4, "type error: "),
    ((EditScriptError,), 1, "edit error: "),
    ((EditError, TreeError), 1, "error: "),
)
_FAILURE_TYPES = tuple(t for types, _, _ in _FAILURES for t in types)


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _FAILURE_TYPES as e:
        key = e.cause if isinstance(e, EditScriptError) and isinstance(e.cause, IllTypedInput) else e
        code, prefix = next((code, prefix) for types, code, prefix in _FAILURES if isinstance(key, types))
        print(f"{prefix}{e}", file=sys.stderr)
        return code
    except RecursionError:
        print(
            f"error: input nests too deeply (deeper than the recursion limit of "
            f"{sys.getrecursionlimit()} allows)",
            file=sys.stderr,
        )
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
