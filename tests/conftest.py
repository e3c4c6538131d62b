"""Shared test helpers: launch the CLI in a fresh interpreter.

Subprocess tests run ``python -m adversim`` with ``cwd`` set to a temporary
directory, so a relative ``PYTHONPATH`` entry such as ``src`` would resolve
against that directory and the child would not find the package. The launcher
puts this checkout's absolute ``src`` first on the child's ``PYTHONPATH``, so
the child imports the code under test wherever pytest is started from, with
or without an installed copy of the package.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_adversim(args, cwd, preexec_fn=None):
    """Run ``python -m adversim *args`` in ``cwd``; returns the CompletedProcess.
    ``preexec_fn`` runs in the child before it starts, e.g. to set a limit."""
    existing = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([str(SRC), existing] if existing else [str(SRC)])
    return subprocess.run(
        [sys.executable, "-m", "adversim", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=preexec_fn,
    )
