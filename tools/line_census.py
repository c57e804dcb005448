#!/usr/bin/env python3
"""Line census of ``src/asvsim``: every executable line is run by a test
or listed, with its reason, in ALLOWED.

Runs the fast suite (``pytest -m "not slow"``) in this process under a
line tracer that follows only frames of ``src/asvsim``.
``TestSeedSplitting`` is deselected for speed: it draws six million
numbers through the pure-Python PCG64 stream, whose lines the rest of the
suite runs too.  The executable lines of a module are the line numbers of
its compiled code objects (``co_lines``).  Code that runs only in a
subprocess, such as a ``--jobs 2`` batch worker, is not seen.

An ALLOWED entry names a line by its file and its source text, stripped
of surrounding white space, so that edits elsewhere in the file do not
move it.  Prints the count of missed lines and every missed line that
ALLOWED does not list, and exits 1 if there is one, if an ALLOWED text
matches no line or more than one line of its file, if the line it matches
ran or holds no code, or if the suite fails.

usage: python3 tools/line_census.py
"""

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asvsim"

#: (file, stripped source line) -> why no test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the `python -m asvsim.cli` entry point; tests call main()",
    ("serialize.py", "from .montecarlo import AggregateStats"):
        "TYPE_CHECKING import, for annotations only",
}


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode, over every code object of the file."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_suite(prefix: str):
    """Run the fast suite under the tracer; returns (exit code, hits per file)."""
    import pytest

    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits[filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-m", "not slow", "-k", "not TestSeedSplitting",
                            "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def allowed_lines() -> tuple:
    """The (file, line) pairs ALLOWED names, and one message per entry whose
    text matches no line or more than one line of its file."""
    lines, errors = set(), []
    for name, text in ALLOWED:
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        matches = [n for n, line in enumerate(source, 1) if line.strip() == text]
        if len(matches) == 1:
            lines.add((name, matches[0]))
        else:
            errors.append(f"  allowed text matches {len(matches)} lines: {name}: {text}")
    return lines, errors


def main() -> int:
    os.chdir(ROOT)
    code, hits = traced_suite(str(PACKAGE) + os.sep)
    missed = set()
    n_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        n_lines += len(lines)
        missed.update((path.name, n) for n in lines - hits[str(path)])
    allowed, errors = allowed_lines()
    unexplained = sorted(missed - allowed)
    stale = sorted(allowed - missed)
    print(f"line census: {len(missed)} of {n_lines} executable lines of src/asvsim "
          f"missed, {len(ALLOWED)} allowed")
    for name, n in unexplained:
        print(f"  missed: {name}:{n}")
    for name, n in stale:
        print(f"  allowed, but ran or holds no code: {name}:{n}")
    for error in errors:
        print(error)
    if code != 0:
        print(f"the test suite failed (pytest exit code {code})")
    return 1 if unexplained or stale or errors or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
