"""A seeded fuzz of the command line on the shipped ``arith`` and ``addrbook`` files.

Each case mutates one file of a get -> edit -> put round: the source tree,
the view tree, the link file get wrote, the edit script, or the program.  A
mutant either changes one character or edits one token: deletes it, repeats
it, swaps it with its neighbour, or replaces it with a token of any of the
files, so that well-formed fragments land in the wrong place (Holler,
Herzig & Zeller, "Fuzzing with code fragments", USENIX Security 2012).

Every run must end with an exit code from 0 to 4 and let no exception
escape ``cli.run``; a failing run must say why on standard error.  Every
mutant of a tree or link file must also read exactly as the recursive
reference reader reads it, value and error message alike.  The seed is
fixed, and the run takes a few seconds.
"""

from __future__ import annotations

import random

import pytest

import recursive_reader as rr
from conftest import EXAMPLES, example_text
from treelens.cli import run
from treelens.text import LensSyntaxError, parse_links, read_tree_file

SEED = 20261018
CHAR_MUTANTS = 40  # per file and kind of mutant
TOKEN_MUTANTS = 40

_ALPHABET = '()[],@<->_"\\ 0123456789Aaz~|=-\t٣é#'

CASES = {
    "arith": ("arith.lens", ["-r", "Expr", "Arith"], "arith_cst.tree", "arith_swap.edits"),
    "addrbook": ("addrbook.lens", ["-r", "AddrBook", "SocialBook"], "addrbook.tree", "addrbook_update.edits"),
}


def _token_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) of every token of ``text``, as the reference reader reads them."""
    spans = []
    offset = 0
    for no, line in enumerate(text.splitlines(keepends=True), start=1):
        for tok in rr.tokenize(line.rstrip("\r\n"), no):
            spans.append((offset + tok.col - 1, offset + tok.col - 1 + len(tok.text)))
        offset += len(line)
    return spans


def _char_mutant(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    c = rng.choice(_ALPHABET)
    op = rng.randrange(3)
    if op == 0 or i == len(text):
        return text[:i] + c + text[i:]
    if op == 1:
        return text[:i] + text[i + 1 :]
    return text[:i] + c + text[i + 1 :]


def _token_mutant(rng: random.Random, text: str, pool: list[str]) -> str:
    spans = _token_spans(text)
    k = rng.randrange(len(spans))
    a, b = spans[k]
    op = rng.randrange(4)
    if op == 0:
        return text[:a] + text[b:]
    if op == 1:
        return text[:b] + " " + text[a:b] + text[b:]
    if op == 2 and k + 1 < len(spans):
        c, d = spans[k + 1]
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    return text[:a] + rng.choice(pool) + text[b:]


def _mutants(rng: random.Random, text: str, pool: list[str]) -> list[str]:
    return [_char_mutant(rng, text) for _ in range(CHAR_MUTANTS)] + [
        _token_mutant(rng, text, pool) for _ in range(TOKEN_MUTANTS)
    ]


def _outcome(f, text):
    try:
        return ("ok", f(text))
    except LensSyntaxError as e:
        return ("error", str(e))


def _run(argv, capsys) -> int:
    code = run(argv)
    err = capsys.readouterr().err
    assert code in range(5), (argv, code)
    assert code == 0 or err, (argv, code)
    return code


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_survives_mutated_inputs(case, tmp_path, capsys):
    lens_name, relation, tree_name, script_name = CASES[case]
    rng = random.Random(f"{SEED}:{case}")
    files = {
        "p.lens": example_text(lens_name),
        "s.tree": example_text(tree_name),
        "e.edits": example_text(script_name),
    }
    path = {name: str(tmp_path / name) for name in ("p.lens", "s.tree", "v.tree", "v.links", "e.edits", "out")}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    program = ["-p", path["p.lens"], *relation]
    get = ["get", *program, "-i", path["s.tree"], "-o", path["v.tree"], "-l", path["v.links"]]
    assert run(get) == 0
    files["v.tree"] = (tmp_path / "v.tree").read_text(encoding="utf-8")
    files["v.links"] = (tmp_path / "v.links").read_text(encoding="utf-8")
    pool = [text[a:b] for text in files.values() for a, b in _token_spans(text)]

    put = ["put", *program, "-s", path["s.tree"], "-v", path["v.tree"], "-l", path["v.links"], "-o", path["out"]]
    edit = ["edit", "-v", path["v.tree"], "-l", path["v.links"], "-e", path["e.edits"], "-o", path["out"],
            "-m", path["out"] + ".links"]
    commands = {
        "p.lens": [get],
        "s.tree": [get, put],
        "v.tree": [put, edit + program],
        "v.links": [put, edit],
        "e.edits": [edit + program],
    }
    readers = {"s.tree": (read_tree_file, rr.read_tree_file), "v.tree": (read_tree_file, rr.read_tree_file),
               "v.links": (parse_links, rr.parse_links)}
    codes = set()
    for name, argvs in commands.items():
        for mutant in _mutants(rng, files[name], pool):
            if name in readers:
                mine, reference = readers[name]
                assert _outcome(mine, mutant) == _outcome(reference, mutant), (name, mutant)
            (tmp_path / name).write_text(mutant, encoding="utf-8")
            for argv in argvs:
                codes.add(_run(argv, capsys))
        (tmp_path / name).write_text(files[name], encoding="utf-8")
    assert {0, 1} <= codes  # the mutants reach past the reader, and are rejected too


def test_a_directory_given_as_an_input_file(tmp_path, capsys):
    argv = ["get", "-p", str(EXAMPLES / "arith.lens"), "-r", "Expr", "Arith", "-i", str(tmp_path)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"cannot read {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("role", ["-i", "-p"])
def test_a_file_that_is_not_utf8(role, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"Num \xff\n")
    files = {"-p": str(EXAMPLES / "arith.lens"), "-i": str(EXAMPLES / "arith_cst.tree")}
    files[role] = str(bad)
    assert run(["get", "-p", files["-p"], "-r", "Expr", "Arith", "-i", files["-i"]]) == 1
    assert capsys.readouterr().err == f"cannot read {bad}: not UTF-8 text (byte 4)\n"


def test_an_output_in_a_missing_directory_is_a_failed_write(tmp_path, capsys):
    out = tmp_path / "missing" / "v.tree"
    argv = ["get", "-p", str(EXAMPLES / "arith.lens"), "-r", "Expr", "Arith",
            "-i", str(EXAMPLES / "arith_cst.tree"), "-o", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"cannot write {out}: No such file or directory\n"


def test_a_laws_summary_in_a_missing_directory_fails_before_the_trials(tmp_path, capsys, monkeypatch):
    from treelens import cli

    monkeypatch.setattr(cli, "verify_laws", lambda *a, **k: pytest.fail("the trials ran"))
    summary = tmp_path / "missing" / "x.json"
    argv = ["laws", "-p", str(EXAMPLES / "arith.lens"), "-r", "Expr", "Arith", "--summary", str(summary)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"cannot write {summary}: No such file or directory\n"


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--trials", "-5", "--trials must be at least 1"),
        ("--trials", "0", "--trials must be at least 1"),
        ("--size", "-3", "--size must be at least 0"),
        ("--script-len", "-1", "--script-len must be at least 0"),
    ],
)
def test_laws_that_would_test_nothing_are_usage_errors(flag, value, message, capsys):
    argv = ["laws", "-p", str(EXAMPLES / "arith.lens"), "-r", "Expr", "Arith", flag, value]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_a_chain_that_does_not_meet_names_the_pair_at_fault(capsys):
    argv = ["get", "-p", str(EXAMPLES / "compose_chain.lens"), "-r", "Expr", "Arith", "-r", "Arith", "NArith",
            "-r", "Term", "Arith", "-i", str(EXAMPLES / "arith_cst.tree")]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "relations do not chain: view type NArith of -r 2 (Arith <---> NArith) differs "
        "from source type Term of -r 3 (Term <---> Arith)\n"
    )
