"""Executable lines of ``src/adversim`` that no in-process test reaches.

A ``sys.settrace`` hook records every line that runs in a frame of a module
under ``src/adversim``; then pytest runs in this same process, and the
script prints, per module, each executable line that never ran, with its
text.  A line is executable when its module's compiled code, or a code
object nested in it, has an instruction on it.  The hook is set before
pytest imports the package, so module-level lines count when they run at
import.

The subprocess CLI tests are not traced: they start a fresh interpreter
with ``python -m adversim``, and the hook lives only in this one.  So the
list includes every line that only a command run in a subprocess reaches,
most of ``cli.py`` and ``__main__.py`` among them.  Tracing slows the suite
about fourfold.  Arguments after the script's name go to pytest; the exit
code is pytest's.

    python scripts/unreached.py                            # the whole suite
    python scripts/unreached.py tests/test_nondecider.py   # one file
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adversim"


def executable_lines(path: Path) -> set[int]:
    """Every line that holds an instruction of ``path``'s compiled code."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events for frames outside the package
        reached[filename].add(frame.f_lineno)
        return on_line

    import pytest

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached[str(path)])
        total += len(missed)
        text = path.read_text().splitlines()
        print(f"{path.name}: {len(missed)} unreached")
        for line in missed:
            print(f"  {line:4}  {text[line - 1].strip()}")
    print(f"{total} executable lines unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
