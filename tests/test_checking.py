"""Exhaustive checking against the sequence DFS it replaced.

``check_exhaustive`` expands each configuration once.  The reference below
is the earlier search: it steps every canonical fault sequence to the depth,
one fault at a time, with no visited set.  Both must report the same first
violation, with the same record and the same replayable trace.  The
reference refuses by the number of fault sequences it projects; where that
is over the budget but the children the search builds are not, the search is
compared with outcomes recorded before the budget counted children.
"""

import functools
from itertools import product

import pytest

from adversim import checking
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


# On these shapes (ftr, n = 4, depth 3) the reference projects more fault
# sequences than the default budget and refuses, while the search builds far
# fewer children.  Outcomes and children built, recorded from
# check_exhaustive(..., budget=10**12) before the budget counted children.
RECORDED_FTR_N4_DEPTH3 = {
    "phase-king-lite": (("ok",), 86016),
    "naive-majority": (
        (
            "agreement",
            {"violation": "agreement", "inputs": [0, 0, 1, 1], "round": 1,
             "outputs": {"0": 0, "1": 0, "2": 0, "3": 1}},
            '{"inputs":[0,0,1,1],"model":"ftr","n":4,"protocol":"naive-majority"}\n'
            '{"dropped":{"3":0},"outputs":{"0":0,"1":0,"2":0,"3":1},"round":1}\n',
        ),
        770,
    ),
    "constant-0": (
        (
            "validity",
            {"violation": "validity", "inputs": [1, 1, 1, 1], "round": 1,
             "outputs": {"0": 0, "1": 0, "2": 0, "3": 0}},
            '{"inputs":[1,1,1,1],"model":"ftr","n":4,"protocol":"constant-0"}\n'
            '{"dropped":{},"outputs":{"0":0,"1":0,"2":0,"3":0},"round":1}\n',
        ),
        3841,
    ),
    "constant-1": (
        (
            "validity",
            {"violation": "validity", "inputs": [0, 0, 0, 0], "round": 1,
             "outputs": {"0": 1, "1": 1, "2": 1, "3": 1}},
            '{"inputs":[0,0,0,0],"model":"ftr","n":4,"protocol":"constant-1"}\n'
            '{"dropped":{},"outputs":{"0":1,"1":1,"2":1,"3":1},"round":1}\n',
        ),
        1,
    ),
}


@pytest.mark.parametrize("protocol_id, model, restricted, n, depth", SHAPES)
def test_exhaustive_matches_sequence_dfs(protocol_id, model, restricted, n, depth):
    protocol = get_protocol(protocol_id, n)
    args = (protocol, n, depth, model, restricted)
    got, explored = _outcome(check_exhaustive, *args)
    if (model, n, depth) == ("ftr", 4, 3):
        want, _ = _outcome(reference_check_exhaustive, *args)
        assert want[0] == "budget"
        assert (got, explored) == RECORDED_FTR_N4_DEPTH3[protocol_id]
        return
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


@pytest.mark.parametrize("model, restricted", [("fts", False), ("fts", True), ("ftr", False)])
@pytest.mark.parametrize("n", range(2, 8))
def test_budget_refuses_one_expansion_before_listing_faults(model, restricted, n, monkeypatch):
    # One expansion builds one child per canonical fault: n * 2**(n-1) under
    # fts (n fewer when restricted) and n**n under ftr.  A budget one short
    # of that count is refused before the faults are listed; a budget equal
    # to it gets as far as listing them.
    count = len(enumerate_faults(model, n, restricted=restricted))

    class Listed(Exception):
        pass

    def listed(*args, **kwargs):
        raise Listed

    monkeypatch.setattr(checking, "enumerate_faults", listed)
    protocol = get_protocol("constant-0", n)
    with pytest.raises(BudgetExceeded, match=f"builds {count} children"):
        check_exhaustive(protocol, n, 1, model, restricted, budget=count - 1)
    with pytest.raises(Listed):
        check_exhaustive(protocol, n, 1, model, restricted, budget=count)


def test_budget_counts_children_built():
    # Projected fault sequences: 17,318,400.  Children the search builds: 18,144.
    protocol = get_protocol("phase-king-lite", 4)
    result = check_exhaustive(protocol, 4, 4, budget=18144)
    assert result.ok and result.explored == 18144
    with pytest.raises(BudgetExceeded, match="more children than budget 18143"):
        check_exhaustive(protocol, 4, 4, budget=18143)
