"""Shared test helpers: launch the CLI in a fresh interpreter, list every
canonical fault of a round, test and re-establish dependence with two
fresh oracle calls, a flooding protocol that is safe only in the
restricted fail-to-send model, a phase-king-lite that records the senders
it was delivered, random lookup-table protocols, misdeclared ones, and a
wrapper that reduces the round itself.

Subprocess tests run ``python -m adversim`` with ``cwd`` set to a temporary
directory, so a relative ``PYTHONPATH`` entry such as ``src`` would resolve
against that directory and the child would not find the package. The launcher
puts this checkout's absolute ``src`` first on the child's ``PYTHONPATH``, so
the child imports the code under test wherever pytest is started from, with
or without an installed copy of the package.
"""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

from adversim.core import AdversimError, ReceiveFault, RoundFault, RoundProtocol
from adversim.nondecider import _witness, failure_free_decision, silent_decision
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


def enumerate_faults(model, n, restricted=False):
    """All canonical per-round faults for a model, in the order
    ``distinct_children`` keeps the first of.

    fts: every (sender, victims) with victims a subset of the other
    processes; ``restricted`` excludes full-silence faults (victim sets of
    size n-1, i.e. more than n-2 messages removed).  ftr: every per-receiver
    drop map (each receiver independently keeps all or drops one sender).
    """
    if n < 2:
        raise AdversimError("need n >= 2")
    if model == "fts":
        faults = []
        for sender in range(n):
            others = [q for q in range(n) if q != sender]
            for mask in range(2 ** len(others)):
                victims = [q for i, q in enumerate(others) if mask >> i & 1]
                if restricted and len(victims) == n - 1:
                    continue
                faults.append(RoundFault(sender, victims))
        return faults
    if model == "ftr":
        if restricted:
            raise AdversimError("restricted mode applies to the fail-to-send model only")
        per_receiver = [[None] + [s for s in range(n) if s != q] for q in range(n)]
        return [
            ReceiveFault({q: s for q, s in enumerate(combo) if s is not None})
            for combo in itertools.product(*per_receiver)
        ]
    raise AdversimError(f"unknown synchronous model {model!r}")


def is_p_dependent(config, p, protocol, cap, *, memo=None):
    """The dependence witness of ``p`` at ``config`` from the two oracles,
    or ``None`` when they agree."""
    ff = failure_free_decision(config, protocol, cap, memo=memo)
    sil = silent_decision(config, p, protocol, cap, memo=memo)
    return _witness(config, p, ff.decision, sil.decision)


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


def _draw(*key) -> int:
    """A 64-bit number fixed by ``key``'s repr: the same in every process."""
    return int.from_bytes(hashlib.blake2b(repr(key).encode(), digest_size=8).digest(), "big")


class TableProtocol(RoundProtocol):
    """A random round protocol, one per ``seed``, whose lookup table is
    drawn entry by entry as it is first read.  A process's state is (value,
    decided, aux), starting at (input, False, 0), and it broadcasts (value,
    aux).  Its next state is drawn by a stable hash of the seed, the state,
    the round modulo the declared ``period`` (2 to 4), the multiset of
    payloads received and, for half the seeds, the senders it missed (its
    own pid among them).  A process becomes decided with a chance of 1/2 to
    1/16 per round, fixed by the seed, and outputs its value in that round.
    The table reads the round only modulo ``cycle``, the period, so the
    promise holds."""

    def __init__(self, n, seed):
        self.n, self.seed = n, seed
        self.protocol_id = f"table-{seed}"
        self.period = self.cycle = 2 + _draw(seed, "period") % 3
        self.sees_missing = _draw(seed, "missing") % 2 == 0
        self.undecided = (1 << 1 + _draw(seed, "rate") % 4) - 1  # the mask that must be 0
        self.table = {}  # the entries drawn so far

    def init(self, pid, input):
        return input, False, 0

    def message(self, internal, round):
        return internal[0], internal[2]

    def transition(self, internal, round, received):
        missing = self.sees_missing and tuple(s for s in range(self.n) if s not in received)
        key = (internal, round % self.cycle, tuple(sorted(received.values())), missing)
        entry = self.table.get(key)
        if entry is None:
            h = _draw(self.seed, *key)
            value, decided, aux = h & 1, internal[1] or h >> 2 & self.undecided == 0, h >> 1 & 1
            out = value if decided and not internal[1] else None
            entry = self.table[key] = (value, decided, aux), out
        return entry


class MisdeclaredTable(TableProtocol):
    """A table protocol whose table reads the round modulo ``cycle``, 3 or 4
    by the seed, but which declares ``period`` 2.  The engines show it the
    round modulo 2, so it is a period-2 protocol: rounds 1 and 2 are all its
    table ever reads."""

    def __init__(self, n, seed):
        super().__init__(n, seed)
        self.cycle = 3 + _draw(seed, "true") % 2
        self.period = 2


class TaggedTable(MisdeclaredTable):
    """A misdeclared table whose broadcast also carries the round it is
    shown, modulo its cycle, so that its ``message`` reads the round too."""

    def __init__(self, n, seed):
        super().__init__(n, seed)
        self.protocol_id = f"tagged-table-{seed}"

    def message(self, internal, round):
        return (*super().message(internal, round), round % self.cycle)


class ReducedRound(RoundProtocol):
    """``inner`` behind a protocol that declares no period and reduces the
    round itself, to the round modulo the inner's declared period, counted
    from 1: the reference that the engines' ``shown_round`` must match.  It
    keeps the inner's id, so the traces of the two compare equal."""

    def __init__(self, inner):
        self.inner, self.n, self.protocol_id = inner, inner.n, inner.protocol_id

    def init(self, pid, input):
        return self.inner.init(pid, input)

    def message(self, internal, round):
        return self.inner.message(internal, (round - 1) % self.inner.period + 1)

    def transition(self, internal, round, received):
        return self.inner.transition(internal, (round - 1) % self.inner.period + 1, received)
