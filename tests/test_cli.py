import json
import os
import subprocess
import sys

from conftest import EXAMPLES, example_text
from treelens.cli import run

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
    assert run([
        "compose", "-p", str(prog), "--r1", "Term", "Arith", "--r2", "Arith", "NArith",
        "--get", "-i", str(src), "-o", str(out), "-l", str(links),
    ]) == 0
    assert out.read_text() == "NSub NZ NZ\n"
    assert links.read_text() == ""  # the mismatch example: empty composition
    back = tmp_path / "back.tree"
    assert run([
        "compose", "-p", str(prog), "--r1", "Term", "Arith", "--r2", "Arith", "NArith",
        "--put", "-s", str(src), "-v", str(out), "-l", str(links), "-o", str(back),
    ]) == 0
    assert back.read_text().endswith("\n")


def test_compose_laws(tmp_path, capsys):
    prog = tmp_path / "mirror.lens"
    prog.write_text(example_text("mirror.lens"))
    code = run([
        "compose", "-p", str(prog), "--r1", "BinT Int", "BinT Int",
        "--r2", "BinT Int", "BinT Int", "--laws", "--trials", "40", "--seed", "6",
    ])
    assert code == 0
    assert "hippocratic: 40/40 ok" in capsys.readouterr().out


def test_compose_reports_like_get_and_put(tmp_path, capsys):
    prog = tmp_path / "mirror.lens"
    prog.write_text(example_text("mirror.lens"))
    base = ["compose", "-p", str(prog), "--r1", "BinT Int", "BinT Int", "--r2", "BinT Int", "BinT Int"]
    assert run(base + ["--get"]) == 1
    assert capsys.readouterr().err == "usage error: --get needs -i\n"
    five = tmp_path / "five.tree"
    five.write_text("5\n")
    assert run(base + ["--put", "-s", str(five)]) == 1
    assert capsys.readouterr().err == "usage error: --put needs -s and -v\n"
    tip = tmp_path / "tip.tree"
    tip.write_text("Tip\n")
    assert run(base + ["--put", "-s", str(five), "-v", str(tip)]) == 4
    assert capsys.readouterr().err == "type error: source: at []: expected BinT Int, found Int\n"
    assert run(base + ["--get", "-i", str(five)]) == 4
    assert capsys.readouterr().err == "type error: source: at []: expected BinT Int, found Int\n"


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
