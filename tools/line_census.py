#!/usr/bin/env python3
"""Line and branch census of ``src/asvsim``: every executable line is run
by a test, and every conditional jump that runs is taken both ways by a
test, or it is listed, with its reason, in ALLOWED or ALLOWED_BRANCHES.

Runs the fast suite (``pytest -m "not slow"``) in this process under a
tracer that follows only frames of ``src/asvsim``.  ``TestSeedSplitting``
is deselected for speed: it draws six million numbers through the
pure-Python PCG64 stream, whose lines the rest of the suite runs too.
Code that runs only in a subprocess, such as a ``--jobs 2`` batch worker,
is not seen.

The executable lines of a module are the line numbers of its compiled
code objects (``co_lines``).  Its branches are the conditional jumps of
that bytecode (an ``IF`` jump or ``FOR_ITER``): a branch is one-way when it
ran and only ever fell through, or only ever jumped.  Exception dispatch
(the jump after ``CHECK_EXC_MATCH``, or in a ``with`` block's exit handler)
is not counted: its other side re-raises, which is no decision of the
program.  A branch that never ran sits on a line of exception-handling
code or on a missed line, which the line census reports.  The tracer
follows opcodes only in code objects whose branches have not all gone
both ways, and stops following a code object once all of its lines ran
and all of its branches went both ways.

An ALLOWED or ALLOWED_BRANCHES entry names a line by its file and its
source text, stripped of surrounding white space, so that edits elsewhere
in the file do not move it.  Prints the count of missed lines and of
one-way branches, and every one that no entry lists.  Exits 1 if there is
one, if an entry's text matches no line or more than one line of its
file, if an ALLOWED line ran or holds no code, if an ALLOWED_BRANCHES line
holds no one-way branch, or if the suite fails.

usage: python3 tools/line_census.py
"""

import dis
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asvsim"

#: the test modules that run whole simulations, in the order they run after
#: the unit tests: by then most branches of the step path went both ways,
#: and the tracer no longer follows its opcodes
WHOLE_RUN_TESTS = ("test_engine.py", "test_metamorphic.py", "test_serialize_cli.py",
                   "test_manoeuvres.py", "test_montecarlo.py", "test_scripts.py",
                   "test_golden.py", "test_acceptance.py")

#: (file, stripped source line) -> why no test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the `python -m asvsim.cli` entry point; tests call main()",
    ("serialize.py", "from .montecarlo import AggregateStats"):
        "TYPE_CHECKING import, for annotations only",
}

#: (file, stripped source line) -> why a branch on it goes one way only
ALLOWED_BRANCHES = {
    ("cli.py", 'if __name__ == "__main__":'):
        "the `python -m asvsim.cli` entry point; tests import the module",
    ("mmg.py", "while hi - lo > _RPM_TOL:"):
        "the bisection bracket starts at [1e-3, 0.5] or wider, so the first test "
        "always enters the loop; the test after each pass goes both ways",
    ("serialize.py", "if TYPE_CHECKING:  # annotations only: "
                     "the scenario path does not load montecarlo"):
        "TYPE_CHECKING is False at run time",
}


class _Code:
    """What the census still waits for in one code object: lines not yet
    run, and (jump offset, successor offset) sides not yet taken."""

    __slots__ = ("lines_left", "branch_of", "sides", "left")

    def __init__(self, code):
        self.lines_left = {line for _, _, line in code.co_lines() if line is not None}
        self.branch_of = {}  # offset of a jump, or of its EXTENDED_ARG prefix -> jump
        self.sides = {}  # jump offset -> (line, fall-through offset, target offset)
        prefix = []
        instructions = list(dis.get_instructions(code))
        for i, ins in enumerate(instructions):
            if ins.opname == "EXTENDED_ARG":
                prefix.append(ins.offset)
                continue
            if _is_branch(ins, instructions[i - 1] if i else None):
                for off in (*prefix, ins.offset):
                    self.branch_of[off] = ins.offset
                self.sides[ins.offset] = (ins.positions.lineno,
                                          instructions[i + 1].offset, ins.argval)
            prefix = []
        self.left = {(jump, succ) for jump, (_, fall, target) in self.sides.items()
                     for succ in (fall, target)}


def _is_branch(ins, before) -> bool:
    """A conditional jump that is not exception dispatch."""
    if not (ins.opname == "FOR_ITER" or "IF" in ins.opname):
        return False
    return before is None or before.opname not in ("CHECK_EXC_MATCH", "WITH_EXCEPT_START")


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode, over every code object of the file."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ordered_test_modules() -> list:
    """Every test module, the unit tests first, then WHOLE_RUN_TESTS."""
    tests = ROOT / "tests"
    units = sorted(p for p in tests.glob("test_*.py") if p.name not in WHOLE_RUN_TESTS)
    return units + [tests / name for name in WHOLE_RUN_TESTS]


def traced_suite(prefix: str):
    """Run the fast suite under the tracer; returns (exit code, {code: _Code})
    for every code object of the package that ran."""
    import pytest

    census = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        info = census.get(code)
        if info is None:
            if not code.co_filename.startswith(prefix):
                return None
            info = census[code] = _Code(code)
        if not info.lines_left and not info.left:
            return None
        lines_left, branch_of, left = info.lines_left, info.branch_of, info.left
        lines_left.discard(frame.f_lineno)
        prev = -1

        def local(frame, event, arg):
            nonlocal prev
            if event == "opcode":
                off = frame.f_lasti
                jump = branch_of.get(prev)
                if jump is not None:
                    left.discard((jump, off))
                prev = off
            elif event == "line":
                lines_left.discard(frame.f_lineno)
            return local

        frame.f_trace_opcodes = bool(left)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-m", "not slow", "-k", "not TestSeedSplitting",
                            "-p", "no:cacheprovider", *map(str, ordered_test_modules())])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, census


def allowed_lines(allowed: dict) -> tuple:
    """The (file, line) pairs an allow-list names, and one message per entry
    whose text matches no line or more than one line of its file."""
    lines, errors = set(), []
    for name, text in allowed:
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        matches = [n for n, line in enumerate(source, 1) if line.strip() == text]
        if len(matches) == 1:
            lines.add((name, matches[0]))
        else:
            errors.append(f"  allowed text matches {len(matches)} lines: {name}: {text}")
    return lines, errors


def one_way_branches(census: dict) -> tuple:
    """({(file, line): [description, ...]} of the branches that ran one way
    only, and the number of branches that ran)."""
    one_way, n_ran = defaultdict(list), 0
    for code, info in census.items():
        name = Path(code.co_filename).name
        for jump, (line, fall, target) in info.sides.items():
            fell, jumped = (jump, fall) not in info.left, (jump, target) not in info.left
            n_ran += fell or jumped
            if fell != jumped:
                side = "falls through" if fell else "jumps"
                one_way[(name, line)].append(f"only {side} ({code.co_qualname})")
    return one_way, n_ran


def main() -> int:
    os.chdir(ROOT)
    code, census = traced_suite(str(PACKAGE) + os.sep)
    hits = defaultdict(set)
    for c, info in census.items():
        hits[c.co_filename].update(
            {line for _, _, line in c.co_lines() if line is not None} - info.lines_left)
    missed = set()
    n_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        n_lines += len(lines)
        missed.update((path.name, n) for n in lines - hits[str(path)])
    allowed, errors = allowed_lines(ALLOWED)
    one_way, n_ran = one_way_branches(census)
    allowed_branches, branch_errors = allowed_lines(ALLOWED_BRANCHES)
    print(f"line census: {len(missed)} of {n_lines} executable lines of src/asvsim "
          f"missed, {len(ALLOWED)} allowed")
    print(f"branch census: {sum(map(len, one_way.values()))} of {n_ran} branches that ran "
          f"went one way, on {len(one_way)} lines, {len(ALLOWED_BRANCHES)} allowed")
    failures = []
    for name, n in sorted(missed - allowed):
        failures.append(f"  missed: {name}:{n}")
    for name, n in sorted(allowed - missed):
        failures.append(f"  allowed, but ran or holds no code: {name}:{n}")
    for name, n in sorted(set(one_way) - allowed_branches):
        text = (PACKAGE / name).read_text(encoding="utf-8").splitlines()[n - 1].strip()
        failures.append(f"  one-way branch: {name}:{n} ({'; '.join(one_way[name, n])}): {text}")
    for name, n in sorted(allowed_branches - set(one_way)):
        failures.append(f"  allowed branch, but no one-way branch on the line: {name}:{n}")
    failures += errors + branch_errors
    for line in failures:
        print(line)
    if code != 0:
        print(f"the test suite failed (pytest exit code {code})")
    return 1 if failures or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
