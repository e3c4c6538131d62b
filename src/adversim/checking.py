"""Agreement/validity checking over fault schedules.

Exhaustive mode searches every canonical fault sequence to a depth, level
by level, pruning once all processes have decided (output registers are
frozen from then on).  It expands each configuration of a level once: all
its children come from one fan-out round, and each child keeps the first
parent and fault that built it.  An expansion builds each distinct child
once, at the first canonical fault that builds it, so the violation found,
a shallowest one and first in level order, has the path and trace of
stepping every fault level by level.  The budget bounds the distinct
children built: the search stops with BudgetExceeded as soon as it would
build one more.  Fuzz mode draws seeded random inputs and faults; each run
draws its inputs, then its faults, from one stream seeded by (seed, run
index) alone, so a reported counterexample replays in isolation.  A fuzz
round is checked only when it writes an output: the check reads only inputs
and outputs, and an unchanged output set passed when it was written.
A fuzz call keeps one expansion table, and the exhaustive search one per
level (every key holds the round): each configuration's broadcast is
computed once, and each transition once per (shown round, broadcast,
receiver state, missed sender), the whole of what it reads, so
configurations that share a broadcast share their transitions.  That is
exact.  Protocols are pure and payloads that compare equal are
interchangeable, a table lives within one call with one protocol, and a
failing ``message()`` or ``transition()`` stores nothing; so every run
draws the same faults, reaches the same configurations and gives the same
verdict, count and trace as it would stepping afresh.
Both modes return their first violation together with a replayable trace.
Output registers are write-once, so only agreement and validity can fail.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product
from typing import NamedTuple, Optional

from .core import (
    AdversimError,
    BudgetExceeded,
    Configuration,
    ExecutionTrace,
    RoundProtocol,
    check_colorless_outcome,
    initial_configuration,
)
from .sync_engine import ExpansionTable, distinct_children, random_faults, run, step_fts


class CheckViolation(NamedTuple):
    kind: str  # "agreement" | "validity"
    inputs: tuple[int, ...]
    round: int
    outputs: dict[int, int]
    trace: ExecutionTrace
    run_index: Optional[int] = None  # fuzz only

    def record(self) -> dict:
        return {
            "violation": self.kind,
            "inputs": list(self.inputs),
            "round": self.round,
            "outputs": {str(q): v for q, v in sorted(self.outputs.items())},
            **({"run": self.run_index} if self.run_index is not None else {}),
        }


class CheckResult(NamedTuple):
    violation: Optional[CheckViolation]
    # rounds stepped: distinct children built (exhaustive, each configuration
    # expanded once); total rounds (fuzz)
    explored: int

    @property
    def ok(self) -> bool:
        return self.violation is None


def replay_violation(kind, protocol, model, inputs, faults, run_index=None) -> CheckViolation:
    """Report a violation reached by ``faults``, re-running them to record
    the replayable trace."""
    result = run(initial_configuration(protocol, inputs), protocol, model, faults, len(faults))
    return CheckViolation(
        kind=kind,
        inputs=inputs,
        round=result.final_config.round - 1,
        outputs=result.final_config.outputs(),
        trace=result.trace,
        run_index=run_index,
    )


def check_exhaustive(
    protocol: RoundProtocol,
    n: int,
    depth: int,
    model: str = "fts",
    restricted: bool = False,
    budget: int = 2_000_000,
) -> CheckResult:
    """Explore every canonical fault sequence up to ``depth`` for every input
    vector, level by level; return a shallowest violation, first in level
    order.  Each distinct configuration is expanded at most once, through
    one expansion table per level, and the search builds at most
    ``budget`` distinct children."""
    if depth < 1:
        raise AdversimError("depth must be >= 1")
    explored = 0
    # Per level after the input vectors: each configuration to expand, with
    # the first (parent, fault) that built it, in the order found.  Decided
    # children are not kept, nor is the last level.  The round is part of a
    # configuration, so no configuration is on two levels.
    levels: list[dict[Configuration, tuple]] = []
    level = (initial_configuration(protocol, bits) for bits in product((0, 1), repeat=n))
    for d in range(depth):
        table: ExpansionTable = {}
        found: dict[Configuration, tuple] = {}
        for config in level:
            inputs = config.inputs()
            for fault, child in distinct_children(config, protocol, model, restricted, table):
                if explored == budget:
                    raise BudgetExceeded(f"search would build more children than budget {budget}")
                explored += 1
                kind = check_colorless_outcome(inputs, child.outputs().values()).violation
                if kind is not None:
                    path = [fault]
                    for parents in reversed(levels):
                        config, fault = parents[config]
                        path.append(fault)
                    violation = replay_violation(kind, protocol, model, inputs, path[::-1])
                    return CheckResult(violation=violation, explored=explored)
                if d + 1 < depth and not child.all_decided():
                    found.setdefault(child, (config, fault))
        levels.append(found)
        level = found
    return CheckResult(violation=None, explored=explored)


def stream_seed(seed: int, *parts) -> int:
    """Derive an independent, platform-stable RNG seed for a named stream.

    All randomness in a command flows from one user seed through streams
    named like ("run", 17), so any single run replays in isolation.
    """
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def check_fuzz(
    protocol: RoundProtocol,
    n: int,
    runs: int,
    depth: int,
    seed: int,
    model: str = "fts",
    restricted: bool = False,
) -> CheckResult:
    """Seeded random input vectors and fault schedules.  Runs stop early once
    every process has decided (registers are frozen after that).  All runs
    share one expansion table and one initial configuration per input
    vector, so a configuration that several runs reach is stepped once."""
    if runs < 1:
        raise AdversimError("runs must be >= 1")
    if depth < 1:
        raise AdversimError("depth must be >= 1")
    table: ExpansionTable = {}
    initial: dict[tuple[int, ...], Configuration] = {}
    explored = 0
    for run_index in range(runs):
        rng = random.Random(stream_seed(seed, "run", run_index))
        inputs = tuple(rng.randrange(2) for _ in range(n))
        faults = random_faults(n, rng, model, restricted)
        config = initial.get(inputs)
        if config is None:
            config = initial[inputs] = initial_configuration(protocol, inputs)
        path = []
        before = config.outputs()
        for _ in range(depth):
            if len(before) == n:
                break
            fault = next(faults)
            config = step_fts(config, protocol, fault, table)
            explored += 1
            path.append(fault)
            after = config.outputs()
            if after == before:
                continue  # an unchanged output set passed when it was written
            kind = check_colorless_outcome(inputs, after.values()).violation
            if kind is not None:
                violation = replay_violation(kind, protocol, model, inputs, path, run_index)
                return CheckResult(violation=violation, explored=explored)
            before = after
    return CheckResult(violation=None, explored=explored)

