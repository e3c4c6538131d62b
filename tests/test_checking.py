"""Exhaustive and fuzz checking against the loops they replaced.

``check_exhaustive`` expands each configuration once.  The reference below
is the earlier search: it steps every canonical fault sequence to the depth,
one fault at a time, with no visited set.  Both must report the same first
violation, with the same record and the same replayable trace.  The
reference refuses by the number of fault sequences it projects; where that
is over the budget but the children the search builds are not, the search is
compared with outcomes recorded before the budget counted children.

``check_fuzz`` shares one expansion table across its runs; its reference is
the fuzz loop without one, which builds and steps every run afresh.
"""

import functools
import random
from itertools import product

import pytest

from adversim import checking
from adversim.checking import (
    BudgetExceeded,
    CheckResult,
    _violation,
    _violation_kind,
    check_exhaustive,
    check_fuzz,
    stream_seed,
)
from adversim.core import AdversimError, EngineError, initial_configuration
from adversim.protocols import get_protocol
from adversim.sync_engine import enumerate_faults, random_faults, step_fts, step_ftr


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


def reference_check_fuzz(protocol, n, runs, depth, seed, model="fts", restricted=False):
    """The fuzz loop with no expansion table: every run builds its initial
    configuration and steps each of its rounds afresh."""
    step = step_fts if model == "fts" else step_ftr
    explored = 0
    for run_index in range(runs):
        rng_inputs = random.Random(stream_seed(seed, "run", run_index, "inputs"))
        inputs = tuple(rng_inputs.randrange(2) for _ in range(n))
        rng_faults = random.Random(stream_seed(seed, "run", run_index, "faults"))
        faults = random_faults(n, rng_faults, model, restricted)
        config = initial_configuration(protocol, inputs)
        path = []
        for _ in range(depth):
            if config.all_decided():
                break
            fault = next(faults)
            before = config.outputs()
            config = step(config, protocol, fault)
            explored += 1
            path.append(fault)
            kind = _violation_kind(inputs, before, config.outputs())
            if kind is not None:
                violation = _violation(kind, protocol, model, inputs, path, run_index)
                return CheckResult(violation=violation, explored=explored)
    return CheckResult(violation=None, explored=explored)


def _fuzz_outcome(check, protocol, n, model, restricted, runs=300, depth=12, seed=11):
    """Verdict, report record, trace bytes and rounds stepped of a fuzz call."""
    result = check(protocol, n, runs, depth, seed, model=model, restricted=restricted)
    v = result.violation
    if v is None:
        return ("ok",), result.explored
    return (v.kind, v.record(), v.trace.to_jsonl()), result.explored


FUZZ_SHAPES = [
    ("phase-king-lite", model, restricted, n)
    for model, restricted in (("fts", False), ("fts", True), ("ftr", False))
    for n in (3, 4, 5)
] + [
    (protocol_id, model, False, n)
    for protocol_id in ("naive-majority", "constant-0", "constant-1")
    for model in ("fts", "ftr")
    for n in (3, 4)
]


@pytest.mark.parametrize("protocol_id, model, restricted, n", FUZZ_SHAPES)
def test_fuzz_matches_table_free_loop(protocol_id, model, restricted, n):
    protocol = get_protocol(protocol_id, n)
    got = _fuzz_outcome(check_fuzz, protocol, n, model, restricted)
    want = _fuzz_outcome(reference_check_fuzz, protocol, n, model, restricted)
    assert got == want
    # The negative controls must actually be caught, so that the record and
    # trace bytes are compared and not just two clean verdicts.
    if protocol_id != "phase-king-lite":
        assert got[0][0] != "ok"


class CountingProtocol:
    """Delegates to a protocol and counts its ``transition`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.protocol_id = inner.protocol_id
        self.n = inner.n
        self.transitions = 0

    def init(self, pid, input):
        return self.inner.init(pid, input)

    def message(self, internal, round):
        return self.inner.message(internal, round)

    def transition(self, internal, round, received):
        self.transitions += 1
        return self.inner.transition(internal, round, received)


def test_fuzz_table_saves_transitions():
    with_table = CountingProtocol(get_protocol("phase-king-lite", 4))
    reference = CountingProtocol(get_protocol("phase-king-lite", 4))
    got = check_fuzz(with_table, 4, 200, 10, 3)
    want = reference_check_fuzz(reference, 4, 200, 10, 3)
    assert got.ok and want.ok and got.explored == want.explored
    assert 0 < with_table.transitions < reference.transitions


class FailsOnce:
    """Stub whose local state is its own pid, so the configuration reached
    after r rounds depends only on the inputs.  Process ``pid`` raises in
    ``where`` ("message" or "transition") in round ``round``, that is, on
    exactly the configurations of that round."""

    protocol_id = "fails-once"

    def __init__(self, n, where, round, pid):
        self.n, self.where, self.round, self.pid = n, where, round, pid

    def _check(self, where, internal, round):
        if (where, internal, round) == (self.where, self.pid, self.round):
            raise RuntimeError(f"{where} fails")

    def init(self, pid, input):
        return pid

    def message(self, internal, round):
        self._check("message", internal, round)
        return internal

    def transition(self, internal, round, received):
        self._check("transition", internal, round)
        return internal, None


@pytest.mark.parametrize("model", ["fts", "ftr"])
@pytest.mark.parametrize("where", ["message", "transition"])
def test_failing_step_raises_on_every_reach(where, model):
    n, round, pid = 3, 3, 1
    protocol = FailsOnce(n, where, round, pid)

    def error_of(call):
        with pytest.raises(EngineError) as info:
            call()
        return info.value.round, info.value.pid, str(info.value)

    want = error_of(lambda: reference_check_fuzz(protocol, n, 50, 5, 2, model=model))
    assert want[:2] == (round, pid)
    assert error_of(lambda: check_fuzz(protocol, n, 50, 5, 2, model=model)) == want
    # One table, the failing configuration reached again and again, by every
    # fault: the same error each time, and no entry left that would skip it.
    step = step_fts if model == "fts" else step_ftr
    faults = enumerate_faults(model, n)
    table = {}
    config = initial_configuration(protocol, (0, 1, 1))
    for fault in faults[:2]:
        config = step(config, protocol, fault, table)
    for fault in faults:
        assert error_of(lambda: step(config, protocol, fault, table)) == want
