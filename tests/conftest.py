"""Shared test helpers: launch the CLI in a fresh interpreter,
re-establish an attack witness, a flooding protocol that is safe only in
the restricted fail-to-send model, and a phase-king-lite that records the
senders it was delivered.

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

from adversim.core import RoundProtocol
from adversim.nondecider import failure_free_decision, silent_decision
from adversim.protocols import PhaseKingLite

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


def verify_witness(witness, protocol, cap):
    """Re-establish a dependence witness with two fresh oracle calls."""
    ff = failure_free_decision(witness.config, protocol, cap)
    sil = silent_decision(witness.config, witness.process, protocol, cap)
    return (
        ff.decision == witness.ff_decision
        and sil.decision == witness.silent_decision
        and ff.decision != sil.decision
    )


class FloodMin(RoundProtocol):
    """Round 1: broadcast your input.  Round 2: broadcast every input you
    know, then decide the least input known.  With at most n-2 victims an
    input reaches a second holder in round 1, and a holder other than the
    round-2 sender reaches everyone, so flooding is safe exactly in the
    restricted fail-to-send model: a complete silence can hide an input."""

    protocol_id = "flood-min"

    def __init__(self, n):
        self.n = n

    def init(self, pid, input):
        return frozenset({input})

    def message(self, internal, round):
        return tuple(sorted(internal))

    def transition(self, internal, round, received):
        if round > 2:
            return internal, None
        known = internal.union(*received.values())
        return known, min(known) if round == 2 else None


class RecordingPhaseKing(PhaseKingLite):
    """Phase-king-lite whose state is (phase-king-lite state, the senders its
    last ``transition`` received), so that run inside a wrapper it records
    the delivery the wrapper actually made."""

    def init(self, pid, input):
        return super().init(pid, input), ()

    def message(self, internal, round):
        return super().message(internal[0], round)

    def transition(self, internal, round, received):
        state, out = super().transition(internal[0], round, received)
        return (state, tuple(received)), out


def recorded_delivery(config):
    """Per process, the senders a gather around ``RecordingPhaseKing`` last
    delivered in ``config``."""
    return {q: s.internal.inner[1] for q, s in enumerate(config.states)}
