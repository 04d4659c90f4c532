"""Child process of the depth probe: one in-process CLI round on the files it is given.

Usage: python3 bench/probe.py '<JSON list of the get, edit and put argument lists>'

Prints, as its last line, the JSON list of each step's exit code, or of the
name of the exception it raised; the round stops at the first step that
does not exit with 0.  Runs at the interpreter's default recursion limit.
"""

import contextlib
import io
import json
import sys

from treelens.cli import run


def main() -> None:
    codes = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = run(argv)
            except Exception as e:  # report what escaped the CLI, e.g. RecursionError
                code = type(e).__name__
        codes.append(code)
        if code != 0:
            break
    print(json.dumps(codes))


if __name__ == "__main__":
    main()
