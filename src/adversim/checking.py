"""Agreement/validity/write-once checking over fault schedules.

Exhaustive mode searches every canonical fault sequence to a depth,
depth-first, pruning once all processes have decided (output registers are
frozen from then on).  It expands each configuration once: all its children
come from one fan-out round, and a configuration whose subtree was already
searched without a violation is not searched again.  The budget bounds the
children built: the search stops with BudgetExceeded as soon as it would
build one more, or before it starts when one expansion alone would.  Fuzz
mode draws seeded random inputs and faults; every run's randomness derives
from (seed, run index), so a reported counterexample replays in isolation.
Fuzz runs revisit the same configurations often, so one fuzz call (and one
liveness check) shares a single expansion table across all its runs: each
configuration's broadcast and each (receiver, missed sender) transition is
computed once per call.  That is exact.  Protocols are pure, the key is the
whole configuration with its round, the table lives for one call with one
protocol, and a failing ``message()`` or ``transition()`` stores nothing; so
every run draws the same faults, reaches the same configurations and gives
the same verdict, count and trace as it would stepping afresh.
Both modes return the first violation together with a replayable trace.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product
from typing import NamedTuple, Optional

from .core import (
    AdversimError,
    Configuration,
    ExecutionTrace,
    NO_DROPS,
    NO_FAULT,
    RoundProtocol,
    check_colorless_outcome,
    initial_configuration,
)
from .sync_engine import (
    ExpansionTable,
    enumerate_faults,
    random_faults,
    run,
    silence,
    step_fts,
    step_ftr,
    successors,
)


class BudgetExceeded(AdversimError):
    """An exhaustive check would build more children than its budget."""


class CheckViolation(NamedTuple):
    kind: str  # "agreement" | "validity" | "write-once"
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
    # rounds stepped: children built (exhaustive, each configuration expanded
    # once); total rounds (fuzz)
    explored: int

    @property
    def ok(self) -> bool:
        return self.violation is None


def _violation_kind(inputs, before: dict, after: dict) -> Optional[str]:
    if any(after.get(q) != v for q, v in before.items()):
        return "write-once"
    return check_colorless_outcome(inputs, after.values()).violation


def _violation(kind, protocol, model, inputs, faults, run_index=None) -> CheckViolation:
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
    vector; return the first violation in depth-first order.  Each distinct
    configuration is expanded at most once, and the search builds at most
    ``budget`` children."""
    if depth < 1:
        raise AdversimError("depth must be >= 1")
    # One expansion builds a child per canonical fault; refuse before listing
    # the faults when that alone is over the budget.
    fanout = n**n if model == "ftr" else n * 2 ** (n - 1) - (n if restricted else 0)
    if fanout > budget:
        raise BudgetExceeded(f"one expansion builds {fanout} children, over budget {budget}")
    faults = enumerate_faults(model, n, restricted=restricted)
    for fault in faults:
        fault.validate(n)
    drop_maps = [fault.mapping for fault in faults]

    explored = 0
    # Configurations whose whole subtree was explored without a violation.
    # The round is part of a configuration and fixes the depth left, so a
    # configuration's subtree depends on the configuration alone.
    safe: set[Configuration] = set()

    def dfs(config: Configuration, path: list) -> Optional[CheckViolation]:
        nonlocal explored
        if len(path) == depth or config.all_decided() or config in safe:
            return None
        inputs, before = config.inputs(), config.outputs()
        for fault, child in zip(faults, successors(config, protocol, drop_maps)):
            if explored == budget:
                raise BudgetExceeded(f"search would build more children than budget {budget}")
            explored += 1
            path.append(fault)
            kind = _violation_kind(inputs, before, child.outputs())
            if kind is not None:
                return _violation(kind, protocol, model, inputs, path)
            found = dfs(child, path)
            if found is not None:
                return found
            path.pop()
        safe.add(config)
        return None

    for bits in product((0, 1), repeat=n):
        config = initial_configuration(protocol, bits)
        found = dfs(config, [])
        if found is not None:
            return CheckResult(violation=found, explored=explored)
    return CheckResult(violation=None, explored=explored)


def stream_seed(seed: int, *parts) -> int:
    """Derive an independent, platform-stable RNG seed for a named stream.

    All randomness in a command flows from one user seed through streams
    named like ("run", 17, "faults"), so any single run replays in isolation.
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
    step = step_fts if model == "fts" else step_ftr
    table: ExpansionTable = {}
    initial: dict[tuple[int, ...], Configuration] = {}
    explored = 0
    for run_index in range(runs):
        rng_inputs = random.Random(stream_seed(seed, "run", run_index, "inputs"))
        inputs = tuple(rng_inputs.randrange(2) for _ in range(n))
        rng_faults = random.Random(stream_seed(seed, "run", run_index, "faults"))
        faults = random_faults(n, rng_faults, model, restricted)
        config = initial.get(inputs)
        if config is None:
            config = initial[inputs] = initial_configuration(protocol, inputs)
        path = []
        for _ in range(depth):
            if config.all_decided():
                break
            fault = next(faults)
            before = config.outputs()
            config = step(config, protocol, fault, table)
            explored += 1
            path.append(fault)
            kind = _violation_kind(inputs, before, config.outputs())
            if kind is not None:
                violation = _violation(kind, protocol, model, inputs, path, run_index)
                return CheckResult(violation=violation, explored=explored)
    return CheckResult(violation=None, explored=explored)


class LivenessFailure(NamedTuple):
    inputs: tuple[int, ...]
    policy: str
    undecided: tuple[int, ...]


def check_liveness(
    protocol: RoundProtocol, n: int, deadline: int = 6, model: str = "fts"
) -> list[LivenessFailure]:
    """Every failure-free and every single-silenced run, from every input
    vector, must fully decide within ``deadline`` rounds.  The runs share one
    expansion table, as in ``check_fuzz``."""
    failures = []
    adversaries = [("failure-free", NO_FAULT if model == "fts" else NO_DROPS)] + [
        (f"silent({p})", silence(p, n, model)) for p in range(n)
    ]
    step = step_fts if model == "fts" else step_ftr
    table: ExpansionTable = {}
    for bits in product((0, 1), repeat=n):
        initial = initial_configuration(protocol, bits)
        for name, fault in adversaries:
            config = initial
            for _ in range(deadline):
                if config.all_decided():
                    break
                config = step(config, protocol, fault, table)
            if not config.all_decided():
                undecided = tuple(
                    q for q in range(n) if config.states[q].output is None
                )
                failures.append(
                    LivenessFailure(inputs=bits, policy=name, undecided=undecided)
                )
    return failures
