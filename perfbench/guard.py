"""Locate the checkout and import ``adversim`` from its own ``src``.

The benchmark must measure the code next to it.  A stale installed copy, or a
relative ``PYTHONPATH=src`` that resolves against the wrong working directory,
would silently measure something else; so the import path is derived from
this file's location and the imported package's location is checked.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "adversim")
OUT = os.path.join(ROOT, ".perfbench-out")


def fail(message: str, code: int = 2) -> None:
    """Exit with a one-line message on stderr and no result on stdout."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_adversim():
    """Import ``adversim`` from ``ROOT/src`` or exit nonzero."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        fail(f"no adversim package under {SRC}")
    sys.path.insert(0, SRC)
    try:
        import adversim
        import adversim.cli  # noqa: F401 - the entry point every job drives
    except Exception as exc:  # noqa: BLE001 - any import failure is fatal here
        fail(f"cannot import adversim from {SRC}: {type(exc).__name__}: {exc}")
    found = os.path.dirname(os.path.realpath(adversim.__file__))
    if found != os.path.realpath(PACKAGE):
        fail(f"adversim resolved to {found}, expected {PACKAGE}")
    return adversim
