"""Exhaustive and fuzz checking against the loops they replaced.

``check_exhaustive`` expands each configuration once, level by level.  Two
references step every canonical fault, one at a time, with no visited set.
The level-order one must report the same violation, with the same record
and the same replayable trace.  The earlier depth-first search must agree
on pass or fail; its first violation may be deeper, never shallower, and on
a pass it steps at least as many rounds.  On the registered protocols its
first violation is the same.  The depth-first reference refuses by the
number of fault sequences it projects; where that is over the budget but
the children the search builds are not, the search is compared with
outcomes recorded before the budget counted children.

A fuzz call keeps one expansion table, and an exhaustive check one per
level; each computes a transition once per (round, broadcast, receiver
state, missed sender).
``check_fuzz``'s reference is the fuzz loop without one, which builds and
steps every run afresh, on the registered protocols and on random table
protocols, some of which read which senders they missed.  Counting
``transition`` calls pins the table: a fuzz call makes one per distinct key
among the rounds its reference steps, and an exhaustive check fewer than
the same search without a table.
"""

import functools
import random
from itertools import product

import pytest
from conftest import TableProtocol, enumerate_faults

from adversim import checking, protocols, sync_engine
from adversim.checking import (
    BudgetExceeded,
    CheckResult,
    check_exhaustive,
    check_fuzz,
    replay_violation,
    stream_seed,
)
from adversim.core import (
    AdversimError,
    EngineError,
    ExecutionTrace,
    check_colorless_outcome,
    initial_configuration,
    validate_trace,
)
from adversim.protocols import get_protocol
from adversim.sync_engine import random_faults, run, silence, step_fts, step_ftr


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
        for fault in faults:
            child = step(config, protocol, fault)
            explored += 1
            path.append(fault)
            kind = check_colorless_outcome(config.inputs(), child.outputs().values()).violation
            if kind is not None:
                return replay_violation(kind, protocol, model, config.inputs(), path)
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


def level_order_check_exhaustive(protocol, n, depth, model="fts", restricted=False, step=None):
    """Step every canonical fault from every configuration of a level, one
    level after another, for every input vector; return the first violation
    in level order.  ``step`` defaults to the model's step function."""
    if depth < 1:
        raise AdversimError("depth must be >= 1")
    faults = enumerate_faults(model, n, restricted=restricted)
    if step is None:
        step = step_fts if model == "fts" else step_ftr
    explored = 0
    level = [(initial_configuration(protocol, bits), ()) for bits in product((0, 1), repeat=n)]
    for _ in range(depth):
        below = []
        for config, path in level:
            if config.all_decided():
                continue
            inputs = config.inputs()
            for fault in faults:
                child = step(config, protocol, fault)
                explored += 1
                kind = check_colorless_outcome(inputs, child.outputs().values()).violation
                if kind is not None:
                    violation = replay_violation(kind, protocol, model, inputs, [*path, fault])
                    return CheckResult(violation=violation, explored=explored)
                below.append((child, (*path, fault)))
        level = below
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
# fewer children.  Outcomes recorded from check_exhaustive(..., budget=10**12)
# before the budget counted children; distinct children built, recorded since
# an expansion builds each distinct child once.
RECORDED_FTR_N4_DEPTH3 = {
    "phase-king-lite": (("ok",), 1586),
    "naive-majority": (
        (
            "agreement",
            {"violation": "agreement", "inputs": [0, 0, 1, 1], "round": 1,
             "outputs": {"0": 0, "1": 0, "2": 0, "3": 1}},
            '{"inputs":[0,0,1,1],"model":"ftr","n":4,"protocol":"naive-majority"}\n'
            '{"dropped":{"3":0},"outputs":{"0":0,"1":0,"2":0,"3":1},"round":1}\n',
        ),
        5,
    ),
    "constant-0": (
        (
            "validity",
            {"violation": "validity", "inputs": [1, 1, 1, 1], "round": 1,
             "outputs": {"0": 0, "1": 0, "2": 0, "3": 0}},
            '{"inputs":[1,1,1,1],"model":"ftr","n":4,"protocol":"constant-0"}\n'
            '{"dropped":{},"outputs":{"0":0,"1":0,"2":0,"3":0},"round":1}\n',
        ),
        16,
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


class FlipsItsInput:
    """Stub that writes 1 - input: from input 0 at round 3, from input 1 at
    round 1, whatever it receives.  All-0 inputs, the first depth-first
    branch, violate validity at round 3; all-1 inputs, the last vector,
    violate it at round 1."""

    protocol_id = "flips-its-input"
    n = None

    def init(self, pid, input):
        return input

    def message(self, internal, round):
        return None

    def transition(self, internal, round, received):
        return internal, (1 - internal if round == 3 - 2 * internal else None)


def test_exhaustive_returns_a_shallowest_violation():
    protocol = FlipsItsInput()
    depth_first = reference_check_exhaustive(protocol, 3, 3).violation
    assert (depth_first.inputs, depth_first.round) == ((0, 0, 0), 3)
    got, _ = _outcome(check_exhaustive, protocol, 3, 3, "fts", False)
    want, _ = _outcome(level_order_check_exhaustive, protocol, 3, 3, "fts", False)
    assert got == want
    assert (got[1]["inputs"], got[1]["round"]) == ([1, 1, 1], 1)


@pytest.mark.parametrize("model, depth", [("fts", 3), ("ftr", 2)])
def test_exhaustive_matches_both_references_on_random_protocols(model, depth, monkeypatch):
    verdicts = set()
    for seed in range(100):
        protocol = TableProtocol(3, seed)
        monkeypatch.setitem(protocols._REGISTRY, protocol.protocol_id,
                            lambda n, seed=seed: TableProtocol(n, seed))
        step = functools.lru_cache(maxsize=None)(step_fts if model == "fts" else step_ftr)
        args = (protocol, 3, depth, model, False)
        got, explored = _outcome(check_exhaustive, *args)
        level_order, level_order_explored = _outcome(level_order_check_exhaustive, *args, step=step)
        assert got == level_order and explored <= level_order_explored
        depth_first, depth_first_explored = _outcome(reference_check_exhaustive, *args, step=step)
        verdicts.add(got[0])
        if got[0] == "ok":
            assert depth_first[0] == "ok" and explored <= depth_first_explored
        else:
            # a shallower violation may be of the other kind
            assert depth_first[0] != "ok" and got[1]["round"] <= depth_first[1]["round"]
            assert validate_trace(ExecutionTrace.from_jsonl(got[2])).valid
    assert verdicts == {"ok", "agreement", "validity"}


@pytest.mark.parametrize("model, restricted", [("fts", False), ("fts", True), ("ftr", False)])
@pytest.mark.parametrize("n", range(2, 8))
def test_budget_refuses_one_expansion_before_listing_faults(model, restricted, n):
    # A MissCounter child is fixed by the set of receivers that missed a
    # message, so one expansion builds 2**n - 1 distinct children under fts
    # (no sender reaches itself), n fewer when restricted (only sender s
    # reaches everyone but s), and 2**n under ftr; depth 1 expands all 2**n
    # input vectors.  A budget equal to that count passes and one less
    # refuses.  The library has no list of the canonical faults to build.
    per_expansion = {"fts": 2**n - 1 - (n if restricted else 0), "ftr": 2**n}[model]
    count = 2**n * per_expansion
    protocol = MissCounter(n)
    result = check_exhaustive(protocol, n, 1, model, restricted, budget=count)
    assert result.ok and result.explored == count
    with pytest.raises(BudgetExceeded, match=f"more children than budget {count - 1}"):
        check_exhaustive(protocol, n, 1, model, restricted, budget=count - 1)


def test_budget_counts_children_built():
    # Projected fault sequences: 17,318,400.  Distinct children the search
    # builds: 1,775.
    protocol = get_protocol("phase-king-lite", 4)
    result = check_exhaustive(protocol, 4, 4, budget=1775)
    assert result.ok and result.explored == 1775
    with pytest.raises(BudgetExceeded, match="more children than budget 1774"):
        check_exhaustive(protocol, 4, 4, budget=1774)


@pytest.mark.parametrize(
    "model, restricted, message",
    [("flp", False, "unknown synchronous model 'flp'"),
     ("ftr", True, "restricted mode applies to the fail-to-send model only")],
    ids=["unknown-model", "restricted-ftr"],
)
def test_exhaustive_refuses_what_it_cannot_expand(model, restricted, message):
    with pytest.raises(AdversimError, match=message):
        check_exhaustive(get_protocol("phase-king-lite", 3), 3, 2, model, restricted)


@pytest.mark.parametrize("model", ["flp", "bogus"])
def test_fault_sources_refuse_an_unknown_model(model):
    message = f"unknown synchronous model '{model}'"
    with pytest.raises(AdversimError, match=message):
        check_fuzz(get_protocol("phase-king-lite", 4), 4, runs=50, depth=10, seed=1, model=model)
    with pytest.raises(AdversimError, match=message):
        random_faults(4, random.Random(1), model, False)
    with pytest.raises(AdversimError, match=message):
        silence(1, 4, model)


def reference_check_fuzz(protocol, n, runs, depth, seed, model="fts", restricted=False,
                         stepped=None):
    """The fuzz loop with no expansion table: every run builds its initial
    configuration and steps each of its rounds afresh, and checks every
    round, whether or not it wrote an output.  Each (configuration, fault)
    stepped is appended to ``stepped`` when one is given."""
    step = step_fts if model == "fts" else step_ftr
    explored = 0
    for run_index in range(runs):
        rng = random.Random(stream_seed(seed, "run", run_index))
        inputs = tuple(rng.randrange(2) for _ in range(n))
        faults = random_faults(n, rng, model, restricted)
        config = initial_configuration(protocol, inputs)
        path = []
        for _ in range(depth):
            if config.all_decided():
                break
            fault = next(faults)
            if stepped is not None:
                stepped.append((config, fault))
            config = step(config, protocol, fault)
            explored += 1
            path.append(fault)
            kind = check_colorless_outcome(inputs, config.outputs().values()).violation
            if kind is not None:
                violation = replay_violation(kind, protocol, model, inputs, path, run_index)
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


@pytest.mark.parametrize("model", ["fts", "ftr"])
@pytest.mark.parametrize("n", [3, 4])
def test_fuzz_matches_table_free_loop_on_random_protocols(model, n):
    # Protocols that read the senders they missed give a different next
    # state per receiver and per missed sender from one broadcast.
    for seed in range(40):
        got = _fuzz_outcome(check_fuzz, TableProtocol(n, seed), n, model, False)
        want = _fuzz_outcome(reference_check_fuzz, TableProtocol(n, seed), n, model, False)
        assert got == want, seed


def test_fuzz_run_replays_from_its_own_stream():
    # Run k draws its inputs, then its faults, from the one stream seeded by
    # (seed, k); nothing drawn for runs 0..k-1 reaches it.
    protocol = get_protocol("naive-majority", 4)
    violation = check_fuzz(protocol, 4, runs=50, depth=4, seed=7).violation
    k = violation.run_index
    assert k >= 1
    rng = random.Random(stream_seed(7, "run", k))
    inputs = tuple(rng.randrange(2) for _ in range(4))
    faults = random_faults(4, rng, "fts", False)
    rebuilt = run(initial_configuration(protocol, inputs), protocol, "fts", faults,
                  len(violation.trace.steps))
    assert rebuilt.trace.to_jsonl() == violation.trace.to_jsonl()


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


@pytest.mark.parametrize("model, n", [("fts", 4), ("ftr", 4), ("fts", 5)])
def test_fuzz_makes_one_transition_per_key(model, n):
    # A transition reads the round, the broadcast, its receiver's state and
    # the sender that receiver misses; the fuzz call computes each once.
    protocol = get_protocol("phase-king-lite", n)
    counting = CountingProtocol(protocol)
    stepped = []
    got = check_fuzz(counting, n, 200, 10, 3, model=model)
    want = reference_check_fuzz(protocol, n, 200, 10, 3, model=model, stepped=stepped)
    assert got.ok and want.ok and got.explored == want.explored == len(stepped)
    keys = set()
    for config, fault in stepped:
        broadcast = tuple(protocol.message(s.internal, config.round) for s in config.states)
        dropped = fault.mapping
        keys.update((config.round, broadcast, q, state, dropped.get(q))
                    for q, state in enumerate(config.states))
    assert counting.transitions == len(keys)


@pytest.mark.parametrize("model, n", [("fts", 4), ("ftr", 3)])
def test_exhaustive_table_saves_transitions(model, n, monkeypatch):
    with_table = CountingProtocol(get_protocol("phase-king-lite", n))
    without = CountingProtocol(get_protocol("phase-king-lite", n))
    got = _outcome(check_exhaustive, with_table, n, 3, model, False)

    def tableless(config, protocol, model, restricted, table):
        return sync_engine.distinct_children(config, protocol, model, restricted)

    monkeypatch.setattr(checking, "distinct_children", tableless)
    want = _outcome(check_exhaustive, without, n, 3, model, False)
    assert got == want
    assert 0 < with_table.transitions < without.transitions


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
