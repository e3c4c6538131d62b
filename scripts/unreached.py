"""Executable lines of ``src/adversim`` that no test reaches.

A ``sys.settrace`` hook records every line that runs in a frame of a module
under ``src/adversim``; then pytest runs in this same process, and the
script prints, per module, each executable line that never ran, with its
text.  A line is executable when its module's compiled code, or a code
object nested in it, has an instruction on it.  The hook is set before
pytest imports the package, so module-level lines count when they run at
import.

The subprocess CLI tests are traced too.  Before pytest starts, the script
puts a temporary directory first on ``PYTHONPATH``; its ``sitecustomize.py``
sets the same hook in every Python child that inherits it (a ``python -m
adversim`` run among them) and, at the child's exit, writes the lines it
reached there, which the script merges into its own map.  A child started
with ``-S`` or with a ``PYTHONPATH`` of its own is not traced.  Tracing
slows the suite about fourfold.  Arguments after the script's name go to
pytest; the exit code is pytest's.

    python scripts/unreached.py                            # the whole suite
    python scripts/unreached.py tests/test_nondecider.py   # one file
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adversim"

# The hook, run here and, as ``sitecustomize``, in each child; a child
# writes what it reached to OUT as "line filename" rows when it exits.
HOOK = '''\
import atexit, os, sys

PREFIX, OUT = {prefix!r}, {out!r}
reached = {{}}


def on_line(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return on_line


def on_call(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None  # no line events for frames outside the package
    reached.setdefault(filename, set()).add(frame.f_lineno)
    return on_line


def dump():
    sys.settrace(None)
    with open(os.path.join(OUT, f"{{os.getpid()}}.txt"), "w") as out:
        out.writelines(f"{{line}} {{name}}\\n" for name, lines in reached.items() for line in lines)
'''
CHILD = "atexit.register(dump)\nsys.settrace(on_call)\n"


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
    import pytest

    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "reached")
        site.mkdir()
        out.mkdir()
        hook_source = HOOK.format(prefix=str(PACKAGE) + "/", out=str(out))
        (site / "sitecustomize.py").write_text(hook_source + CHILD)
        hook: dict = {}
        exec(hook_source, hook)
        reached = hook["reached"]
        inherited = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join([str(site), *([inherited] if inherited else [])])
        sys.settrace(hook["on_call"])
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
        finally:
            sys.settrace(None)
        for child in out.iterdir():
            for row in child.read_text().splitlines():
                line, name = row.split(" ", 1)
                reached.setdefault(name, set()).add(int(line))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        total += len(missed)
        text = path.read_text().splitlines()
        print(f"{path.name}: {len(missed)} unreached")
        for line in missed:
            print(f"  {line:4}  {text[line - 1].strip()}")
    print(f"{total} executable lines unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
