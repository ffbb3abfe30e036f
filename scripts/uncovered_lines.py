#!/usr/bin/env python3
"""Print every executable line of src/srmks that the test suite never runs.

Usage: PYTHONPATH=src python scripts/uncovered_lines.py [pytest arguments]

Runs pytest (the whole tests/ directory unless arguments are given) in
this process with a line tracer (sys.settrace) on the frames of src/srmks
only, then prints `path:line` for each line that the module's compiled
code can reach (the line table of every code object, from
dis.findlinestarts) and the run never executed. Lines that run only in a
child interpreter, as in the subprocess tests, count as not run. The
traced suite takes about 45 s on a 2-vCPU x86-64 machine. Exits with
pytest's exit code.

The stdlib trace module is not used: its ignore list caches its verdict by
a file's base name, so once an installed package's __init__.py or
errors.py is ignored, the package's own module of that name is too.
"""
import dis
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srmks"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of `path` can run."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: module entry
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: set[tuple[str, int]] = set()

    def count(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return count

    def enter(frame, event, arg):
        return count if frame.f_code.co_filename in files else None

    sys.settrace(enter)
    threading.settrace(enter)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in files.items():
        for line in sorted(executable_lines(path)):
            if (name, line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
