"""README's command-line walkthrough, run line by line, and its library example.

Every ``treelens`` line of the "Command line" block runs in order through
``cli.run``, from the repository root, with ``/tmp/`` rewritten to a fresh
directory; each must exit 0.  The "Library" block runs as written, from the
repository root.
"""

import shlex

from conftest import EXAMPLES
from treelens.cli import run

ROOT = EXAMPLES.parent


def _block(section: str, language: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {section}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _walkthrough() -> list[list[str]]:
    block = _block("Command line", "sh")
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "treelens", line
            commands.append(words[1:])
    return commands


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    commands = _walkthrough()
    assert len(commands) >= 6
    monkeypatch.chdir(ROOT)
    for argv in commands:
        argv = [str(tmp_path) + "/" + a[len("/tmp/"):] if a.startswith("/tmp/") else a for a in argv]
        assert run(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "narith.tree").read_text() == "NSub (NSub NZ NZ) (NSub NZ NZ)\n"


def test_readme_library_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith('FromT "" (Neg "kept" (Lit "" 8))\nrelation Expr <---> Arith: 1000 trials, seed 0\n')
    assert "hippocratic: 1000/1000 ok" in out and "adversarial: 1000/1000 ok" in out
