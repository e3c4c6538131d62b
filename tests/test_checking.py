"""Exhaustive checking against the sequence DFS it replaced.

``check_exhaustive`` expands each configuration once.  The reference below
is the earlier search: it steps every canonical fault sequence to the depth,
one fault at a time, with no visited set.  Both must report the same first
violation, with the same record and the same replayable trace.
"""

import functools
from itertools import product

import pytest

from adversim.checking import (
    BudgetExceeded,
    CheckResult,
    _violation,
    _violation_kind,
    check_exhaustive,
)
from adversim.core import AdversimError, initial_configuration
from adversim.protocols import get_protocol
from adversim.sync_engine import enumerate_faults, step_fts, step_ftr


def reference_check_exhaustive(
    protocol, n, depth, model="fts", restricted=False, budget=2_000_000, step=None
):
    """Walk every canonical fault sequence up to ``depth`` for every input
    vector, stepping one fault at a time; return the first violation in
    depth-first order.  ``step`` defaults to the model's step function."""
    if depth < 1:
        raise AdversimError("depth must be >= 1")
    faults = enumerate_faults(model, n, restricted=restricted)
    if step is None:
        step = step_fts if model == "fts" else step_ftr
    per_vector = sum(len(faults) ** d for d in range(1, depth + 1))
    if per_vector * 2**n > budget:
        raise BudgetExceeded(
            f"{per_vector * 2 ** n} rounds projected exceeds budget {budget}"
        )

    explored = 0

    def dfs(config, path):
        nonlocal explored
        if config.all_decided() or len(path) == depth:
            return None
        before = config.outputs()
        for fault in faults:
            child = step(config, protocol, fault)
            explored += 1
            path.append(fault)
            kind = _violation_kind(config.inputs(), before, child.outputs())
            if kind is not None:
                return _violation(kind, protocol, model, config.inputs(), path)
            found = dfs(child, path)
            if found is not None:
                return found
            path.pop()
        return None

    for bits in product((0, 1), repeat=n):
        found = dfs(initial_configuration(protocol, bits), [])
        if found is not None:
            return CheckResult(violation=found, explored=explored)
    return CheckResult(violation=None, explored=explored)


def _outcome(check, protocol, n, depth, model, restricted, **kwargs):
    """What a caller can see of a check: verdict, report record and trace
    bytes, or the budget refusal; plus the rounds stepped."""
    try:
        result = check(protocol, n, depth, model=model, restricted=restricted, **kwargs)
    except BudgetExceeded as exc:
        return ("budget", str(exc)), 0
    v = result.violation
    if v is None:
        return ("ok",), result.explored
    return (v.kind, v.record(), v.trace.to_jsonl()), result.explored


SHAPES = [
    (protocol_id, model, restricted, n, depth)
    for protocol_id in ("phase-king-lite", "naive-majority", "constant-0", "constant-1")
    for model, restricted in (("fts", False), ("fts", True), ("ftr", False))
    for n in (3, 4)
    for depth in (1, 2, 3)
]


@pytest.mark.parametrize("protocol_id, model, restricted, n, depth", SHAPES)
def test_exhaustive_matches_sequence_dfs(protocol_id, model, restricted, n, depth):
    protocol = get_protocol(protocol_id, n)
    args = (protocol, n, depth, model, restricted)
    got, explored = _outcome(check_exhaustive, *args)
    # Stepping is pure, so caching it leaves the reference's walk unchanged
    # and halves its time on the largest shapes.
    step = functools.lru_cache(maxsize=None)(step_fts if model == "fts" else step_ftr)
    want, reference_explored = _outcome(reference_check_exhaustive, *args, step=step)
    assert got == want
    assert explored <= reference_explored


class MissCounter:
    """Stub whose local state is the number of rounds in which this process
    missed a message, whatever the round; a process writes 1 on its third
    such round.  From all-0 inputs that is a validity violation, reachable at
    depth 3 only by missing a message in every round.  The same states recur
    at different rounds: the first branch meets (missed once) at round 3,
    where one round is left, before a later branch meets it at round 2,
    where the violation is still in reach."""

    protocol_id = "miss-counter"
    n = None

    def __init__(self, n):
        self.n = n

    def init(self, pid, input):
        return 0

    def message(self, internal, round):
        return None

    def transition(self, internal, round, received):
        missed = internal + (len(received) < self.n - 1)
        return missed, (1 if missed == 3 else None)


def test_visited_set_keys_on_the_round():
    protocol = MissCounter(3)
    got, _ = _outcome(check_exhaustive, protocol, 3, 3, "fts", False)
    want, _ = _outcome(reference_check_exhaustive, protocol, 3, 3, "fts", False)
    assert want[0] == "validity"
    assert got == want
