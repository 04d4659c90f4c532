"""Command-line front door.

Subcommands: ``validate``, ``get``, ``put``, ``edit``, ``laws``, ``compose``.
Exit codes: 0 success, 1 usage/parse error (and failed law runs, and inputs
nested too deeply to process), 2 validation failure, 3 rejected links, 4 type
error.  Diagnostics go to standard error as ``file:line:col: code: message``.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _Usage(message)


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    top = _Parser(prog="treelens", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a program")
    p.add_argument("program")

    p = sub.add_parser("get", help="compute the view and links of a source")
    p.add_argument("-p", "--program", required=True)
    p.add_argument("-r", "--relation", nargs=2, metavar=("S", "V"), required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("-l", "--links")

    p = sub.add_parser("put", help="write a view back into a source")
    p.add_argument("-p", "--program", required=True)
    p.add_argument("-r", "--relation", nargs=2, metavar=("S", "V"), required=True)
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
    p.add_argument("-r", "--relation", nargs=2, metavar=("S", "V"))

    p = sub.add_parser("laws", help="run the randomized law suite")
    p.add_argument("-p", "--program", required=True)
    p.add_argument("-r", "--relation", nargs=2, metavar=("S", "V"), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--script-len", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summary")

    p = sub.add_parser("compose", help="pipe two relations of one program")
    p.add_argument("-p", "--program", required=True)
    p.add_argument("--r1", nargs=2, metavar=("A", "B"), required=True)
    p.add_argument("--r2", nargs=2, metavar=("B", "C"), required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--get", action="store_true")
    mode.add_argument("--put", action="store_true")
    mode.add_argument("--laws", action="store_true")
    p.add_argument("-i", "--input")
    p.add_argument("-s", "--source")
    p.add_argument("-v", "--view")
    p.add_argument("-l", "--links")
    p.add_argument("-o", "--output")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--script-len", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(summary=None)  # --laws runs the laws command, which has --summary
    return top


def _read(path: str) -> str:
    return FsPath(path).read_text(encoding="utf-8")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        FsPath(path).write_text(text, encoding="utf-8")


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
    """The lens a command runs: ``-r``'s relation, or ``--r1`` then ``--r2`` for a complete compose."""
    vp = _load(args.program)
    if args.command != "compose":
        return lens(vp, *args.relation)
    cl = CompositeLens(lens(vp, *args.r1), lens(vp, *args.r2))
    if args.get and not args.input:
        raise _Usage("--get needs -i")
    if args.put and not (args.source and args.view):
        raise _Usage("--put needs -s and -v")
    return cl


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
    view = read_tree_file(_read(args.view))
    links = parse_links(_read(args.links))
    ops = parse_script(_read(args.script))
    ctx = None
    if args.program and args.relation:
        h = _lens(args)
        ctx = EditContext(h.view_schema, h.view_type)
    state = apply_script(EditState(view, links), ops, ctx)
    _write(args.output, write_tree_file(state.view))
    _write(args.links_out, render_links(state.links))
    return 0


def _cmd_laws(args) -> int:
    h = _lens(args)
    summary = verify_laws(
        h, args.trials, size_bound=args.size, script_len=args.script_len, seed=args.seed
    )
    sys.stdout.write(summary.to_text())
    if args.summary:
        _write(args.summary, summary.to_json())
    return 0 if summary.ok else 1


def _cmd_compose(args) -> int:
    return (_cmd_get if args.get else _cmd_put if args.put else _cmd_laws)(args)


_COMMANDS = {
    "validate": _cmd_validate,
    "get": _cmd_get,
    "put": _cmd_put,
    "edit": _cmd_edit,
    "laws": _cmd_laws,
    "compose": _cmd_compose,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except LensSyntaxError as e:
        print(f"{e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"cannot read {e.filename}", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (UnknownRelation, CompositionTypeError) as e:
        print(f"unknown relation: {e}", file=sys.stderr)
        return 2
    except InvalidLinks as e:
        print(f"links rejected: {e}", file=sys.stderr)
        return 3
    except (IllTypedInput, IllTyped) as e:
        print(f"type error: {e}", file=sys.stderr)
        return 4
    except EditScriptError as e:
        if isinstance(e.cause, IllTypedInput):
            print(f"type error: {e}", file=sys.stderr)
            return 4
        print(f"edit error: {e}", file=sys.stderr)
        return 1
    except (EditError, TreeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
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
