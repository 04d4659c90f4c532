import json
import os
import subprocess
import sys

import pytest

from conftest import EXAMPLES, example_text
from treelens import CompositeLens, lens, load_program, parse_tree, verify_laws
from treelens.cli import _build_parser, _lens, run
from treelens.text import render_links, write_tree_file

SRC = EXAMPLES.parent / "src"


def _arith(tmp_path):
    p = tmp_path / "arith.lens"
    p.write_text(example_text("arith.lens"))
    return str(p)


def test_validate_ok():
    assert run(["validate", str(EXAMPLES / "arith.lens")]) == 0


def test_validate_all_shipped_examples(capsys):
    for name in sorted(EXAMPLES.glob("*.lens")):
        assert run(["validate", str(name)]) == 0, name
    capsys.readouterr()


def test_validate_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.lens"
    bad.write_text("data = broken\n")
    assert run(["validate", str(bad)]) == 1
    assert "expected" in capsys.readouterr().err


def test_validate_semantic_error(tmp_path, capsys):
    bad = tmp_path / "bad.lens"
    bad.write_text(example_text("arith.lens").replace("  FromT _ t ~ t\n", ""))
    assert run(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "E-source-coverage" in err
    assert f"{bad}:" in err  # file:line:col prefix


def test_usage_error(capsys):
    assert run(["get"]) == 1
    capsys.readouterr()


def test_one_parser_serves_every_command(tmp_path, capsys, monkeypatch):
    from treelens import cli

    parser = cli._build_parser()
    built = []
    real = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: built.append(1) or real(self, *a, **k))
    prog = _arith(tmp_path)
    assert run(["validate", prog]) == 0
    assert run(["get"]) == 1  # a usage error leaves the parser as it was
    assert run(["validate", prog]) == 0
    assert built == [] and cli._build_parser() is parser
    capsys.readouterr()


def test_get_put_file_roundtrip(tmp_path):
    prog = _arith(tmp_path)
    src = tmp_path / "src.tree"
    src.write_text(example_text("arith_cst.tree"))
    view, links, back = tmp_path / "v.tree", tmp_path / "l.links", tmp_path / "s2.tree"
    assert run(["get", "-p", prog, "-r", "Expr", "Arith", "-i", str(src), "-o", str(view), "-l", str(links)]) == 0
    assert run([
        "put", "-p", prog, "-r", "Expr", "Arith",
        "-s", str(src), "-v", str(view), "-l", str(links), "-o", str(back),
    ]) == 0
    assert back.read_text() == src.read_text()  # byte-for-byte


def test_put_empty_links_drops_annotations(tmp_path):
    prog = _arith(tmp_path)
    src = tmp_path / "src.tree"
    src.write_text(example_text("arith_cst.tree"))
    view, empty, out = tmp_path / "v.tree", tmp_path / "empty.links", tmp_path / "out.tree"
    empty.write_text("")
    assert run(["get", "-p", prog, "-r", "Expr", "Arith", "-i", str(src), "-o", str(view), "-l", str(tmp_path / 'x.links')]) == 0
    assert run([
        "put", "-p", prog, "-r", "Expr", "Arith",
        "-s", str(src), "-v", str(view), "-l", str(empty), "-o", str(out),
    ]) == 0
    assert '"a plus"' not in out.read_text()
    assert '"a neg"' not in out.read_text()


def test_edit_and_put_swap_scenario(tmp_path):
    prog = _arith(tmp_path)
    src = tmp_path / "src.tree"
    src.write_text(example_text("arith_cst.tree"))
    v, l = tmp_path / "v.tree", tmp_path / "l.links"
    run(["get", "-p", prog, "-r", "Expr", "Arith", "-i", str(src), "-o", str(v), "-l", str(l)])
    script = tmp_path / "s.edits"
    script.write_text(example_text("arith_swap.edits"))
    v2, l2 = tmp_path / "v2.tree", tmp_path / "l2.links"
    assert run([
        "edit", "-v", str(v), "-l", str(l), "-e", str(script),
        "-o", str(v2), "-m", str(l2), "-p", prog, "-r", "Expr", "Arith",
    ]) == 0
    out = tmp_path / "out.tree"
    assert run([
        "put", "-p", prog, "-r", "Expr", "Arith",
        "-s", str(src), "-v", str(v2), "-l", str(l2), "-o", str(out),
    ]) == 0
    assert 'Neg "a neg"' in out.read_text()


def test_put_rejected_links_exit_code(tmp_path, capsys):
    prog = _arith(tmp_path)
    src = tmp_path / "src.tree"
    src.write_text(example_text("arith_cst.tree"))
    view = tmp_path / "v.tree"
    run(["get", "-p", prog, "-r", "Expr", "Arith", "-i", str(src), "-o", str(view), "-l", str(tmp_path / 'l.links')])
    bad = tmp_path / "bad.links"
    bad.write_text('(Neg "zzz" _ @ [2]) <-> (Add _ _ @ [])\n')
    code = run([
        "put", "-p", prog, "-r", "Expr", "Arith",
        "-s", str(src), "-v", str(view), "-l", str(bad), "-o", str(tmp_path / "o.tree"),
    ])
    assert code == 3
    capsys.readouterr()


def test_put_type_error_exit_code(tmp_path, capsys):
    prog = _arith(tmp_path)
    src = tmp_path / "src.tree"
    src.write_text(example_text("arith_cst.tree"))
    notview = tmp_path / "notview.tree"
    notview.write_text('Lit "x" 1\n')
    code = run([
        "put", "-p", prog, "-r", "Expr", "Arith",
        "-s", str(src), "-v", str(notview), "-o", str(tmp_path / "o.tree"),
    ])
    assert code == 4
    capsys.readouterr()
    # An ill-typed source is rejected too, even when a link could retain it.
    src.write_text('FromT "a" (Lit 5 3)\n')
    view, links, out = tmp_path / "v.tree", tmp_path / "l.links", tmp_path / "o.tree"
    view.write_text("Num 3\n")
    links.write_text("(Lit 5 _ @ [1]) <-> (Num _ @ [])\n")
    assert run([
        "put", "-p", prog, "-r", "Expr", "Arith",
        "-s", str(src), "-v", str(view), "-l", str(links), "-o", str(out),
    ]) == 4
    assert capsys.readouterr().err == "type error: source: at [1, 0]: expected String, found Int\n"
    assert not out.exists()


def test_unknown_relation_exit_code(tmp_path, capsys):
    prog = _arith(tmp_path)
    src = tmp_path / "src.tree"
    src.write_text("Num 0\n")
    assert run(["get", "-p", prog, "-r", "Arith", "Expr", "-i", str(src)]) == 2
    capsys.readouterr()


def test_laws_command(tmp_path, capsys):
    prog = _arith(tmp_path)
    summary = tmp_path / "summary.json"
    code = run([
        "laws", "-p", prog, "-r", "Expr", "Arith",
        "--trials", "50", "--size", "25", "--script-len", "3", "--seed", "4",
        "--summary", str(summary),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "hippocratic: 50/50 ok" in out
    data = json.loads(summary.read_text())
    assert data["trials"] == 50
    assert data["counts"]["hippocratic"] == [50, 50]


def test_compose_get_put(tmp_path):
    prog = tmp_path / "chain.lens"
    prog.write_text(example_text("compose_chain.lens"))
    src = tmp_path / "src.tree"
    src.write_text('Neg "a" (Lit "b" 7)\n')
    out, links = tmp_path / "c.tree", tmp_path / "c.links"
    chain = ["-p", str(prog), "-r", "Term", "Arith", "-r", "Arith", "NArith"]
    assert run(["get", *chain, "-i", str(src), "-o", str(out), "-l", str(links)]) == 0
    assert out.read_text() == "NSub NZ NZ\n"
    assert links.read_text() == ""  # the mismatch example: empty composition
    back = tmp_path / "back.tree"
    assert run(["put", *chain, "-s", str(src), "-v", str(out), "-l", str(links), "-o", str(back)]) == 0
    assert back.read_text().endswith("\n")


def test_compose_laws(tmp_path, capsys):
    prog = tmp_path / "mirror.lens"
    prog.write_text(example_text("mirror.lens"))
    code = run([
        "laws", "-p", str(prog), "-r", "BinT Int", "BinT Int",
        "-r", "BinT Int", "BinT Int", "--trials", "40", "--seed", "6",
    ])
    assert code == 0
    assert "hippocratic: 40/40 ok" in capsys.readouterr().out


def test_compose_reports_like_get_and_put(tmp_path, capsys):
    prog = tmp_path / "mirror.lens"
    prog.write_text(example_text("mirror.lens"))
    chain = ["-p", str(prog), "-r", "BinT Int", "BinT Int", "-r", "BinT Int", "BinT Int"]
    assert run(["get", *chain]) == 1
    assert capsys.readouterr().err == "usage error: the following arguments are required: -i/--input\n"
    five = tmp_path / "five.tree"
    five.write_text("5\n")
    assert run(["put", *chain, "-s", str(five)]) == 1
    assert capsys.readouterr().err == "usage error: the following arguments are required: -v/--view\n"
    tip = tmp_path / "tip.tree"
    tip.write_text("Tip\n")
    assert run(["put", *chain, "-s", str(five), "-v", str(tip)]) == 4
    assert capsys.readouterr().err == "type error: source: at []: expected BinT Int, found Int\n"
    assert run(["get", *chain, "-i", str(five)]) == 4
    assert capsys.readouterr().err == "type error: source: at []: expected BinT Int, found Int\n"


def test_compose_subcommand_is_gone(capsys):
    assert run(["compose", "-p", str(EXAMPLES / "mirror.lens")]) == 1
    assert "invalid choice: 'compose'" in capsys.readouterr().err


def test_chain_folds_left_and_matches_the_library(tmp_path, capsys):
    prog = str(EXAMPLES / "mirror.lens")
    m = ["-r", "BinT Int", "BinT Int"]
    chain = ["-p", prog, *m, *m, *m]
    h = _lens(_build_parser().parse_args(["laws", *chain]))
    assert isinstance(h.first, CompositeLens) and not isinstance(h.second, CompositeLens)
    assert not isinstance(h.first.first, CompositeLens)
    one = lens(load_program(EXAMPLES.joinpath("mirror.lens").read_text()), "BinT Int", "BinT Int")
    lib = CompositeLens(CompositeLens(one, one), one)

    src = tmp_path / "s.tree"
    src.write_text("Node 1 (Node 2 Tip Tip) (Node 3 Tip (Node 4 Tip Tip))\n")
    s = parse_tree(src.read_text())
    view, links = tmp_path / "v.tree", tmp_path / "l.links"
    assert run(["get", *chain, "-i", str(src), "-o", str(view), "-l", str(links)]) == 0
    v, ls = lib.get(s)
    assert view.read_text() == write_tree_file(v)
    assert links.read_text() == render_links(ls)

    v2 = parse_tree("Node 7 Tip (Node 4 Tip Tip)")
    view.write_text(write_tree_file(v2))
    kept = frozenset(l for l in ls if l.view.path == ())
    links.write_text(render_links(kept))
    out = tmp_path / "o.tree"
    assert run(["put", *chain, "-s", str(src), "-v", str(view), "-l", str(links), "-o", str(out)]) == 0
    assert out.read_text() == write_tree_file(lib.put(s, v2, kept))

    capsys.readouterr()
    assert run(["laws", *chain, "--trials", "30", "--seed", "2"]) == 0
    assert capsys.readouterr().out == verify_laws(lib, 30, seed=2).to_text()


def test_chain_laws_summary(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    chain = ["-p", str(EXAMPLES / "compose_chain.lens"), "-r", "Expr", "Arith", "-r", "Arith", "NArith"]
    code = run([
        "laws", *chain, "--trials", "20", "--size", "25", "--script-len", "3", "--seed", "4",
        "--summary", str(summary),
    ])
    capsys.readouterr()
    vp = load_program(example_text("compose_chain.lens"))
    expected = verify_laws(
        CompositeLens(lens(vp, "Expr", "Arith"), lens(vp, "Arith", "NArith")),
        20, size_bound=25, script_len=3, seed=4,
    )
    assert code == (0 if expected.ok else 1)
    assert summary.read_text() == expected.to_json()


def test_typed_edit_on_a_chain_types_against_the_last_view(tmp_path, capsys):
    chain = ["-p", str(EXAMPLES / "compose_chain.lens"), "-r", "Expr", "Arith", "-r", "Arith", "NArith"]
    view, links = tmp_path / "v.tree", tmp_path / "l.links"
    assert run(["get", *chain, "-i", str(EXAMPLES / "arith_cst.tree"), "-o", str(view), "-l", str(links)]) == 0
    script, out = tmp_path / "s.edits", tmp_path / "o.tree"
    base = ["edit", "-v", str(view), "-l", str(links), "-e", str(script), "-o", str(out), "-m", str(tmp_path / "m")]
    script.write_text("replace [1] (Num 3)\n")  # an Arith, the middle type, not an NArith
    assert run(base) == 0  # untyped, the edit goes through
    assert run(base + chain) == 4
    assert capsys.readouterr().err.startswith("type error: ")
    script.write_text("replace [1] (NZ)\n")
    assert run(base + chain) == 0
    assert out.read_text() == "NSub (NSub NZ NZ) NZ\n"


def test_relations_that_do_not_chain(capsys):
    chain = ["-p", str(EXAMPLES / "compose_chain.lens"), "-r", "Term", "Arith", "-r", "Expr", "Arith"]
    assert run(["get", *chain, "-i", str(EXAMPLES / "arith_cst.tree")]) == 2
    assert capsys.readouterr().err == (
        "relations do not chain: view type Arith of -r 1 (Term <---> Arith) differs "
        "from source type Expr of -r 2 (Expr <---> Arith)\n"
    )


def test_edit_untyped_mode(tmp_path):
    # without -p/-r the edit command applies structurally
    prog = _arith(tmp_path)
    src = tmp_path / "src.tree"
    src.write_text(example_text("arith_cst.tree"))
    v, l = tmp_path / "v.tree", tmp_path / "l.links"
    run(["get", "-p", prog, "-r", "Expr", "Arith", "-i", str(src), "-o", str(v), "-l", str(l)])
    script = tmp_path / "s.edits"
    script.write_text("swap [0] [1]\n")
    assert run([
        "edit", "-v", str(v), "-l", str(l), "-e", str(script),
        "-o", str(tmp_path / "v2.tree"), "-m", str(tmp_path / "l2.links"),
    ]) == 0


@pytest.mark.parametrize(
    "given,missing", [("-p", "-r"), ("-r", "-p")], ids=["program-only", "relation-only"]
)
def test_edit_needs_both_halves_of_a_typing_context(tmp_path, capsys, given, missing):
    # One half alone used to run the edit untyped: inserting a String into
    # the book's group list succeeded, where the full context rejects it.
    view, links, script = tmp_path / "v.tree", tmp_path / "l.links", tmp_path / "s.edits"
    view.write_text("SocialBook Nil\n")
    links.write_text("")
    script.write_text('insert [0] 0 ("x")\n')
    halves = {"-p": ["-p", str(EXAMPLES / "addrbook.lens")], "-r": ["-r", "AddrBook", "SocialBook"]}
    base = ["edit", "-v", str(view), "-l", str(links), "-e", str(script), "-o", str(tmp_path / "o")]
    assert run(base + halves[given]) == 1
    assert capsys.readouterr().err == f"usage error: edit {given} needs {missing}\n"
    assert not (tmp_path / "o").exists()
    assert run(base + halves["-p"] + halves["-r"]) == 4
    capsys.readouterr()


def test_put_rejection_message_names_link_and_path(tmp_path, capsys):
    prog = _arith(tmp_path)
    src = tmp_path / "src.tree"
    src.write_text(example_text("arith_cst.tree"))
    view = tmp_path / "v.tree"
    run(["get", "-p", prog, "-r", "Expr", "Arith", "-i", str(src), "-o", str(view), "-l", str(tmp_path / "l.links")])
    capsys.readouterr()
    bad = tmp_path / "bad.links"
    bad.write_text('(Neg "zzz" _ @ [2]) <-> (Sub (Num 0) _ @ [1])\n')
    assert run([
        "put", "-p", prog, "-r", "Expr", "Arith",
        "-s", str(src), "-v", str(view), "-l", str(bad), "-o", str(tmp_path / "o.tree"),
    ]) == 3
    err = capsys.readouterr().err
    assert "view path" in err and 'Neg "zzz" _' in err


def test_too_deep_input_is_a_one_line_error(tmp_path, capsys):
    n = 2000
    src = tmp_path / "deep.tree"
    src.write_text(
        'Plus "" (' * (n - 1)
        + 'FromT "" (Lit "" 0)'
        + "".join(f') (Lit "" {i})' for i in range(1, n))
        + "\n"
    )
    code = run(["get", "-p", _arith(tmp_path), "-r", "Expr", "Arith", "-i", str(src),
                "-o", str(tmp_path / "v.tree"), "-l", str(tmp_path / "l.links")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: input nests too deeply")
    assert err.count("\n") == 1


# Inputs whose terms nest far deeper than any stack allows.  A tuple hash has
# no depth guard, so a hash walking one of these terms ends the process on a
# signal; the script runs in a child process so that this fails the test.
_DEEP_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
from treelens import fst_projection, parse_links
from treelens.cli import run

d = Path(sys.argv[1])
(d / "p.lens").write_text(
    "data T = A T T | L Int\\ndata V = B V | W Int\\n\\nT <---> V\\n  A _ y ~ B y\\n  L i ~ W i\\n"
)
prog = ["-p", str(d / "p.lens"), "-r", "T", "V"]

def cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    return [code, err.getvalue()[:60]]

n, m = 120_000, 600_000
(d / "s.tree").write_text("A (" * n + "L 0" + ") (L 1)" * n + "\\n")  # a left spine under the wildcard
out = {"get": cli(["get", *prog, "-i", str(d / "s.tree"), "-o", str(d / "v.tree"), "-l", str(d / "l.links")])}
ls = parse_links((d / "l.links").read_text())
out["fst"] = [len(fst_projection(ls)), fst_projection(ls) <= fst_projection(ls)]
(d / "s2.tree").write_text("A (L 0) (L 1)\\n")
(d / "v2.tree").write_text("B (W 1)\\n")
(d / "l2.links").write_text("(" + "A (" * m + "L 0" + ") _" * m + " @ []) <-> (B _ @ [])\\n")
out["put"] = cli(["put", *prog, "-s", str(d / "s2.tree"), "-v", str(d / "v2.tree"), "-l", str(d / "l2.links")])
print(json.dumps(out))
"""


def test_deep_inputs_never_end_the_process_on_a_signal(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _DEEP_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
    out = json.loads(done.stdout)
    assert out["get"] == [0, ""]
    assert out["fst"] == [2, True]
    code, err = out["put"]
    assert code == 3 and err.startswith("links rejected: E-source-mismatch at view path []")


def test_an_integer_too_long_for_int_is_a_syntax_error(tmp_path, capsys):
    # ``int`` refuses a decimal string of more digits than the process-wide
    # limit, which the toolkit leaves as it is.
    digits = sys.get_int_max_str_digits()
    src = tmp_path / "big.tree"
    src.write_text('FromT "" (Lit "" ' + "1" * (digits + 700) + ")\n")
    assert run(["get", "-p", _arith(tmp_path), "-r", "Expr", "Arith", "-i", str(src)]) == 1
    assert capsys.readouterr() == ("", f"1:18: integer of more than {digits} digits\n")


def test_rejected_link_is_the_same_under_every_hash_seed(tmp_path):
    # Three stray links sit inside one view region; put names the one with
    # the least view path, whatever order the link set iterates in.
    src, view, links = tmp_path / "s.tree", tmp_path / "v.tree", tmp_path / "l.links"
    src.write_text("Node (Succ Zero) Tip Tip\n")
    view.write_text("Tip\n")
    links.write_text(
        "(Tip @ [1]) <-> (Tip @ [])\n"
        + "".join(f"(Succ _ @ [0]) <-> (True @ [{k}])\n" for k in range(3))
    )
    argv = [sys.executable, "-m", "treelens.cli", "put", "-p", str(EXAMPLES / "natbool.lens"),
            "-r", "BinT Nat", "BinT Bool", "-s", str(src), "-v", str(view), "-l", str(links)]
    errs = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 3
        errs.add(done.stderr)
    assert errs == {
        "links rejected: E-overlapping-regions at view path []: second link ends inside "
        "this view region [(Succ _ @ [0]) <-> (True @ [0])]\n"
    }


# One input per row of ``cli._FAILURES`` that no test above pins: its exit code
# and the first line of its standard error, with the test's directory as ``D``.
@pytest.mark.parametrize(
    "argv,code,first_line",
    [
        (["edit", "-e", "D/oob.edits"], 1, "edit error: step 0: path [5] stops resolving at depth 0"),
        (["get", "-p", "D/arith.lens", "-r", "Arith", "Expr", "-i", "D/v.tree"], 2, "unknown relation: Arith <---> Expr"),
        (
            ["edit", "-e", "D/typed.edits", "-p", "D/arith.lens", "-r", "Expr", "Arith"],
            4,
            "type error: step 1: replacement at [0]: at []: expected Arith, found Term",
        ),
        (
            ["validate", "D/bad.lens"],
            2,
            "D/bad.lens:6:1: E-source-coverage: source patterns do not cover Expr, e.g. FromT _ _",
        ),
        (["validate", "D/syntax.lens"], 1, "3:10: unexpected character '$'"),
    ],
    ids=["edit-error", "unknown-relation", "typed-edit-step", "validation", "syntax"],
)
def test_failure_table_rows(tmp_path, capsys, argv, code, first_line):
    prog = _arith(tmp_path)
    view, links = tmp_path / "v.tree", tmp_path / "l.links"
    assert run(["get", "-p", prog, "-r", "Expr", "Arith", "-i", str(EXAMPLES / "arith_cst.tree"),
                "-o", str(view), "-l", str(links)]) == 0
    (tmp_path / "oob.edits").write_text("swap [0] [5]\n")
    (tmp_path / "typed.edits").write_text('swap [0] [1]\nreplace [0] (Lit "" 1)\n')
    (tmp_path / "bad.lens").write_text(example_text("arith.lens").replace("  FromT _ t ~ t\n", ""))
    (tmp_path / "syntax.lens").write_text("data X = A\nX <---> X\n  A ~ A  $\n")
    if argv[0] == "edit":
        argv = ["edit", "-v", str(view), "-l", str(links), "-o", "D/o.tree", "-m", "D/o.links", *argv[1:]]
    capsys.readouterr()
    assert run([a.replace("D/", f"{tmp_path}/") for a in argv]) == code
    assert capsys.readouterr().err.replace(str(tmp_path), "D").splitlines()[0] == first_line
