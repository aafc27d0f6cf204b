"""Executable lines of ``src/projlim`` that the tier-1 suite never runs.

Runs pytest in this process with a ``sys.settrace`` line tracer that records
only frames of files under ``src/projlim``, then prints, per module, the
executable lines that never ran and their total.  A line is executable when
the compiled module has an instruction on it; the ``def`` line of a function
counts as run when the enclosing module or class body ran it, not when the
function was called.  Only the standard library is used.

Run from the root of a checkout (the directory is not a test path, so tier-1
does not collect it); extra arguments go to pytest in place of ``-q``:

    PYTHONPATH=src python tools/line_audit.py
    PYTHONPATH=src python tools/line_audit.py -q tests/test_cli.py

Tracing makes the suite several times slower.  The exit code is pytest's.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "projlim"


def executable_lines(path: Path) -> set[int]:
    """The lines with an instruction in the compiled module, the first line
    of each nested code object (its ``def``, run by the enclosing body) and
    the module's line 0 excepted."""
    lines: set[int] = set()
    todo = [(compile(path.read_text(), str(path), "exec"), True)]
    while todo:
        code, top = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line and (top or line != code.co_firstlineno))
        todo += [(const, False) for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in files.items():
        unrun = sorted(executable_lines(path) - ran[name])
        total += len(unrun)
        print(f"{path.name}: {len(unrun)}" + (f"  {unrun}" if unrun else ""))
    print(f"total unrun executable lines: {total}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
