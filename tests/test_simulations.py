"""Model reductions: gather core, synchronizer projection, piggyback ledger."""

import random
from itertools import islice, product, repeat
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from adversim import protocols, simulations
from adversim.core import (
    AdversimError,
    AsyncProtocol,
    EngineError,
    FlpStep,
    ReceiveFault,
    RoundProtocol,
    UnknownProtocolError,
    initial_configuration,
    validate_trace,
)
from adversim.async_engine import RoundRobinScheduler, SeededFairScheduler, run_async
from adversim.protocols import PhaseKingLite, get_protocol
from adversim.simulations import (
    EmulationLemmaViolation,
    GetCoreState,
    GetCoreWrapper,
    LedgerEntry,
    PiggybackState,
    PiggybackWrapper,
    ResourceLimitError,
    SynchronizerState,
    SynchronizerWrapper,
    audit_stack,
    build_stack,
    classify_delivery,
    gather_delivery,
    getcore_equivalent,
    getcore_rounds,
    piggyback_ledger,
    project_synchronized_run,
    stack_model,
)
from adversim.sync_engine import (
    NO_FAULT,
    RoundFault,
    random_faults,
    run,
    silence,
    step_fts,
    step_ftr,
)
from conftest import (
    MisdeclaredTable,
    RecordingPhaseKing,
    ReducedRound,
    TaggedTable,
    enumerate_faults,
    recorded_delivery,
)
from test_async_engine import Relay


class FloatMean(RoundProtocol):
    """Averages float payloads for four rounds, then outputs whether the
    mean reached one half.  Floats are not bytes, ints, strings or None, so
    this protocol only runs under wrappers that pass payloads through as
    plain values."""

    protocol_id = "float-mean"

    def __init__(self, n):
        self.n = n

    def init(self, pid, input):
        return float(input) + pid / 8

    def message(self, internal, round):
        return internal

    def transition(self, internal, round, received):
        if round > 4:
            return internal, None
        value = (internal + sum(received.values())) / (1 + len(received))
        return value, (int(value >= 0.5) if round == 4 else None)


@pytest.fixture
def float_mean(monkeypatch):
    # registered so that stack ids and trace validation resolve it
    monkeypatch.setitem(protocols._REGISTRY, "float-mean", FloatMean)
    return FloatMean


def _assert_gather_equals_direct(configs, faults, n, inputs):
    """Every simulated round of a gather run equals the direct fail-to-send
    run of float-mean under the classified fault, state for state."""
    base = FloatMean(n)
    direct = initial_configuration(base, inputs)
    rounds = getcore_rounds(faults, n)
    assert len(rounds) >= 4
    for rep in rounds:
        direct = step_fts(direct, base, rep.fault)
        wrapped = configs[3 * rep.round]
        assert [s.internal.inner for s in wrapped.states] == [s.internal for s in direct.states]
        assert wrapped.outputs() == direct.outputs()
    assert len(direct.outputs()) == n
    assert all(isinstance(s.internal, float) for s in direct.states)


def _assert_synchronized_equals_direct(protocol, inputs, horizon):
    """A synchronized asynchronous run projects onto a valid fail-to-receive
    trace, and the slowest live processes hold exactly the state that the
    direct run of the inner protocol under that trace reaches."""
    sched = SeededFairScheduler(5)
    final = run_async(inputs, protocol, sched, horizon=horizon).final_state
    states = [s.internal for s in final.states]
    proj = project_synchronized_run(states, final.crashed, protocol.inner, inputs)
    assert proj.report.valid, proj.report.problems
    faults = [step.fault for step in proj.trace.steps]
    direct = run(
        initial_configuration(protocol.inner, inputs),
        protocol.inner,
        "ftr",
        faults,
        horizon=proj.min_round,
        keep_configs=True,
    )
    slowest = [q for q in proj.completed_rounds if proj.completed_rounds[q] == proj.min_round]
    for q in slowest:
        assert states[q].inner == direct.final_config.states[q].internal
    return direct


def test_float_payloads_pass_unchanged_through_gather(float_mean):
    n, inputs = 4, (1, 0, 0, 1)
    proto = build_stack("fts-over-ftr", "float-mean", n)
    rng = random.Random(11)
    result = run(
        initial_configuration(proto, inputs),
        proto,
        "ftr",
        random_faults(n, rng, "ftr", False),
        horizon=15,
        keep_configs=True,
    )
    faults = [step.fault for step in result.trace.steps]
    _assert_gather_equals_direct(result.configs, faults, n, inputs)


def test_float_payloads_pass_unchanged_through_synchronizer(float_mean):
    n, inputs = 4, (1, 0, 0, 1)
    proto = build_stack("ftr-over-flp", "float-mean", n)
    direct = _assert_synchronized_equals_direct(proto, inputs, horizon=400)
    assert len(direct.final_config.outputs()) == n


def test_float_payloads_pass_unchanged_through_nested_stack(float_mean):
    n, inputs = 4, (1, 0, 0, 1)
    proto = build_stack("fts-over-ftr-over-flp", "float-mean", n)
    direct = _assert_synchronized_equals_direct(proto, inputs, horizon=1200)
    faults = [step.fault for step in direct.trace.steps]
    _assert_gather_equals_direct(direct.configs, faults, n, inputs)


# -- audits, each against its independent reference -------------------------------


def _gather_run(n, inputs, seed):
    proto = build_stack("fts-over-ftr", "float-mean", n)
    faults = random_faults(n, random.Random(seed), "ftr", False)
    config = initial_configuration(proto, inputs)
    return proto, run(config, proto, "ftr", faults, horizon=15, keep_configs=True)


def _synchronized_run(proto, inputs, horizon):
    # the scheduler _assert_synchronized_equals_direct runs
    sched = SeededFairScheduler(5)
    return run_async(inputs, proto, sched, horizon=horizon)


@pytest.mark.parametrize("seed", range(4))
def test_gather_audit_matches_reference(float_mean, seed):
    n, inputs = 4, (1, 0, 0, 1)
    proto, result = _gather_run(n, inputs, seed)
    faults = [step.fault for step in result.trace.steps]
    _assert_gather_equals_direct(result.configs, faults, n, inputs)
    rounds = getcore_rounds(faults, n)
    assert getcore_equivalent(proto.inner, result.configs, rounds)
    audit = audit_stack(proto, result)
    assert audit.ok
    assert audit.records == [r.record() for r in rounds] + [{"equivalent_direct_run": True}]
    min_core = min(len(r.core) for r in rounds)
    assert audit.summary == f"{len(rounds)} simulated rounds, min core size {min_core}"


def test_gather_audit_rejects_tampered_inner_state(float_mean):
    n, inputs = 4, (1, 0, 0, 1)
    proto, result = _gather_run(n, inputs, 0)
    config = result.configs[6]  # after simulated round 2
    state = config.states[2]
    nudged = state._replace(internal=state.internal._replace(inner=state.internal.inner + 1.0))
    configs = list(result.configs)
    configs[6] = config._replace(states=config.states[:2] + (nudged,) + config.states[3:])
    tampered = result._replace(configs=tuple(configs))
    faults = [step.fault for step in result.trace.steps]
    with pytest.raises(AssertionError):
        _assert_gather_equals_direct(tampered.configs, faults, n, inputs)
    assert not getcore_equivalent(proto.inner, tampered.configs, getcore_rounds(faults, n))
    audit = audit_stack(proto, tampered)
    assert not audit.ok
    assert audit.records[-1] == {"equivalent_direct_run": False}


@pytest.mark.parametrize("stack, horizon", [("ftr-over-flp", 400), ("fts-over-ftr-over-flp", 1200)])
def test_projection_audit_matches_reference(float_mean, stack, horizon):
    n, inputs = 4, (1, 0, 0, 1)
    proto = build_stack(stack, "float-mean", n)
    direct = _assert_synchronized_equals_direct(proto, inputs, horizon)
    audit = audit_stack(proto, _synchronized_run(proto, inputs, horizon))
    (record,) = audit.records  # a nested stack too: the projection alone
    assert audit.ok
    assert record["projection_valid"] is True and record["problems"] == []
    assert record["min_round"] == len(direct.trace.steps)
    assert audit.summary == f"crashed=None min_round={record['min_round']} projection_valid=True"


def test_projection_audit_rejects_tampered_log_output(float_mean):
    n, inputs = 4, (1, 0, 0, 1)
    proto = build_stack("ftr-over-flp", "float-mean", n)
    result = _synchronized_run(proto, inputs, 400)
    final = result.final_state
    state = final.states[0]
    log = list(state.internal.log)
    received, out = log[3]
    assert out is not None  # float-mean outputs in round 4
    log[3] = (received, 1 - out)
    internal = state.internal._replace(log=tuple(log))
    states = (state._replace(internal=internal),) + final.states[1:]
    tampered = result._replace(final_state=final._replace(states=states))
    audit = audit_stack(proto, tampered)
    (record,) = audit.records
    assert not audit.ok
    assert record["projection_valid"] is False
    assert record["problems"]
    assert audit.summary.endswith("projection_valid=False")


@pytest.mark.parametrize("seed", range(3))
def test_ledger_audit_matches_seen_set_reference(float_mean, seed):
    n, inputs = 3, (1, 0, 1)
    proto = build_stack("flp-over-ftr", "float-mean", n)
    faults = random_faults(n, random.Random(seed), "ftr", False)
    result = run(
        initial_configuration(proto, inputs), proto, "ftr", faults, horizon=20, keep_configs=True
    )
    reference = SeenSetPiggyback(proto.inner, n)
    expected = initial_configuration(reference, inputs)
    for step in result.trace.steps:
        expected = step_ftr(expected, reference, step.fault)
    ledger = _seen_set_ledger(expected)
    audit = audit_stack(proto, result)
    assert audit.ok
    assert audit.records == [entry.record() for entry in ledger]
    undelivered = sum(not entry.fully_delivered(n) for entry in ledger)
    assert audit.summary == f"{len(ledger)} simulated messages, {undelivered} not fully delivered"


# -- get-core -----------------------------------------------------------------


def _wrapped_run(n, inputs, faults, rounds=1):
    base = PhaseKingLite(n)
    wrapped = GetCoreWrapper(base, n)
    config = initial_configuration(wrapped, inputs)
    result = run(config, wrapped, "ftr", faults, horizon=3 * rounds, keep_configs=True)
    return base, result


def _first_round(result):
    """The first simulated round's report of a gather run, from its trace."""
    return getcore_rounds([step.fault for step in result.trace.steps], result.trace.n)[0]


def test_no_drops_full_delivery():
    _, result = _wrapped_run(3, (1, 0, 0), [])
    rep = _first_round(result)
    assert rep.core == (0, 1, 2)
    assert rep.fault == NO_FAULT
    assert all(len(v) == 2 for v in rep.delivery.values())  # n-1 senders each


def test_three_phase_silence_equals_direct_full_silence_fault():
    # silencing p on every phase of a simulated round reproduces the
    # fail-to-send fault (p, everyone else), state for state
    n = 3
    p = 1
    silence = ReceiveFault({q: p for q in range(n) if q != p})
    base, result = _wrapped_run(n, (1, 0, 0), [silence] * 3)
    rep = _first_round(result)
    assert rep.fault == RoundFault(p, [0, 2])
    assert rep.core == (0, 2)
    direct = step_fts(initial_configuration(base, (1, 0, 0)), base, RoundFault(p, [0, 2]))
    wrapped_inners = tuple(s.internal.inner for s in result.configs[3].states)
    assert wrapped_inners == tuple(s.internal for s in direct.states)


def test_adversarial_sample_always_classifiable():
    # random 3-phase fault combinations always land on a legal single-sender
    # pattern (the exhaustive sweep lives in the acceptance suite)
    n = 3
    faults = enumerate_faults("ftr", n)
    rng = random.Random(123)
    for _ in range(300):
        combo = [rng.choice(faults) for _ in range(3)]
        _, result = _wrapped_run(n, (1, 0, 0), combo)
        rep = _first_round(result)
        assert len(rep.core) >= n - 1
        # the core read off the fault is every sender all others delivered
        delivered_by_all = tuple(
            s for s in range(n) if all(s in rep.delivery[q] for q in range(n) if q != s)
        )
        assert rep.core == delivered_by_all


def test_wrapped_decisions_agree_with_direct_run():
    n = 3
    base, result = _wrapped_run(n, (1, 1, 0), [], rounds=4)
    outs = result.final_config.outputs()
    assert outs == {0: 1, 1: 1, 2: 1}  # failure-free majority decision


def test_core_set_and_classify_hand_cases():
    delivery = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    assert classify_delivery(delivery, 3) == NO_FAULT
    partial = {0: (2,), 1: (0, 2), 2: (0,)}
    assert classify_delivery(partial, 3) == RoundFault(1, [0, 2])
    broken = {0: (2,), 1: (0,), 2: (0, 1)}  # 0 misses 1, 1 misses 2
    with pytest.raises(EmulationLemmaViolation):
        classify_delivery(broken, 3)


def test_gather_refuses_two_payloads_for_one_sender():
    wrapper = GetCoreWrapper(PhaseKingLite(3), 3)
    state = wrapper.init(0, 1)._replace(seen=frozenset({(1, b"0"), (1, b"1")}))
    with pytest.raises(AdversimError) as exc:
        wrapper.transition(state, 3, {})
    assert str(exc.value) == "two payloads for sender 1 in one simulated round"


class FilteringGather(GetCoreWrapper):
    """A reference gather whose ``seen`` never holds the process's own
    entry: each gathered entry is filtered against the process's own pid as
    it arrives, and the own entry is added only to what the process sends."""

    def init(self, pid, input):
        return GetCoreState(pid=pid, inner=self.inner.init(pid, input), seen=frozenset())

    def message(self, internal, round):
        own = (internal.pid, self.inner.message(internal.inner, (round + 2) // 3))
        return tuple(sorted(internal.seen | {own}))

    def transition(self, internal, round, received):
        merged = set(internal.seen)
        for entries in received.values():
            merged.update(entry for entry in entries if entry[0] != internal.pid)
        if round % 3 != 0:
            return internal._replace(seen=frozenset(merged)), None
        delivered = {}
        for sender, payload in sorted(merged):
            if sender in delivered and delivered[sender] != payload:
                raise AdversimError(f"two payloads for sender {sender} in one simulated round")
            delivered[sender] = payload
        inner, out = self.inner.transition(internal.inner, round // 3, delivered)
        return GetCoreState(pid=internal.pid, inner=inner, seen=frozenset()), out


@pytest.mark.parametrize("n", [3, 4])
def test_gather_union_sends_and_delivers_as_filtering_gather(n):
    # seen holds the process's own entry from the start of each simulated
    # round; what a process sends, delivers and outputs must not change
    gather = GetCoreWrapper(RecordingPhaseKing(n), n)
    reference = FilteringGather(RecordingPhaseKing(n), n)
    rng = random.Random(2_400 + n)
    for _ in range(100):
        inputs = tuple(rng.randrange(2) for _ in range(n))
        script = list(islice(random_faults(n, rng, "ftr", False), 12))
        got, want = (
            run(initial_configuration(p, inputs), p, "ftr", script, horizon=12, keep_configs=True)
            for p in (gather, reference)
        )
        assert got.trace.steps == want.trace.steps
        for mine, theirs in zip(got.configs, want.configs, strict=True):
            assert [set(gather.message(s.internal, mine.round)) for s in mine.states] == [
                set(reference.message(s.internal, theirs.round)) for s in theirs.states
            ]
            assert recorded_delivery(mine) == recorded_delivery(theirs)
            # every state holds its own entry, and nothing else tells it apart
            sim_round = (mine.round + 2) // 3
            for a, b in zip(mine.states, theirs.states):
                own = (a.internal.pid, gather.inner.message(a.internal.inner, sim_round))
                assert own in a.internal.seen
                assert a._replace(internal=a.internal._replace(seen=a.internal.seen - {own})) == b
        for r in range(1, 5):
            want_delivery = gather_delivery(script[3 * r - 3 : 3 * r], n)
            assert recorded_delivery(got.configs[3 * r]) == want_delivery


def test_gather_delivers_what_the_script_says_on_every_script_at_n3():
    # the wrapper's own delivery, recorded by its inner protocol, against
    # the delivery computed from the fault script alone
    n = 3
    gather = GetCoreWrapper(RecordingPhaseKing(n), n)
    faults = enumerate_faults("ftr", n)
    level = [((), initial_configuration(gather, (1, 0, 0)))]
    for _ in range(3):
        level = [(script + (f,), step_ftr(c, gather, f)) for script, c in level for f in faults]
    assert len(level) == 27**3
    for script, config in level:
        assert recorded_delivery(config) == gather_delivery(script, n)


def test_gather_delivers_what_the_script_says_on_seeded_scripts_at_n4():
    n = 4
    gather = GetCoreWrapper(RecordingPhaseKing(n), n)
    config = initial_configuration(gather, (1, 0, 1, 0))
    faults = enumerate_faults("ftr", n)
    rng = random.Random(2_804)
    for _ in range(2_000):
        script = [rng.choice(faults) for _ in range(3)]
        final = run(config, gather, "ftr", script, horizon=3).final_config
        assert recorded_delivery(final) == gather_delivery(script, n)


def test_classify_delivery_attaches_script_when_two_senders_missed():
    script = enumerate_faults("ftr", 3)[:3]
    broken = {0: (2,), 1: (0,), 2: (0, 1)}  # 0 misses 1, 1 misses 2
    with pytest.raises(EmulationLemmaViolation) as exc:
        classify_delivery(broken, 3, script)
    assert str(exc.value).startswith("multiple senders missed in one simulated round: [1, 2]")
    assert exc.value.script == script


def test_lemma_violation_carries_script():
    err = EmulationLemmaViolation("core too small", script=[ReceiveFault({0: 1})])
    assert err.script is not None
    assert "fault script" in str(err)


def test_two_rounds_already_give_a_core_of_n_minus_1():
    # ROADMAP item 13: a process missing s after two rounds dropped s in
    # round 2 and heard everyone else, so everyone but s dropped s in round
    # 1; two such senders would make a third process drop both in round 1
    for n in (3, 4):
        for script in product(enumerate_faults("ftr", n), repeat=2):
            classify_delivery(gather_delivery(script, n), n)


# -- the gather's period -------------------------------------------------------


def _gather_script(n, rng, sim_rounds):
    """Three ftr faults per simulated round: with equal odds, one process
    silenced in all three phases (a simulated fail-to-send fault, which can
    split the inner protocol's processes) or three uniform draws."""
    draws = random_faults(n, rng, "ftr", False)
    script = []
    for _ in range(sim_rounds):
        if rng.random() < 0.5:
            script += [silence(rng.randrange(n), n, "ftr")] * 3
        else:
            script += islice(draws, 3)
    return script


def _repeats_with_declared_period(gather, n, seed):
    """Whether ``message`` and ``transition`` give equal results at rounds r
    and r + period on every configuration 30 seeded ftr runs reach, each
    transition on the inbox the run's next fault delivers."""
    period = gather.period
    rng = random.Random(seed)
    for _ in range(30):
        inputs = tuple(rng.randrange(2) for _ in range(n))
        script = _gather_script(n, rng, 2 * n)
        start = initial_configuration(gather, inputs)
        result = run(start, gather, "ftr", script, horizon=len(script), keep_configs=True)
        for config, fault in zip(result.configs, script):
            r, states = config.round, [s.internal for s in config.states]
            sent = [gather.message(state, r) for state in states]
            if sent != [gather.message(state, r + period) for state in states]:
                return False
            dropped = fault.mapping
            for q, state in enumerate(states):
                inbox = {p: sent[p] for p in range(n) if p not in (q, dropped.get(q))}
                if gather.transition(state, r, inbox) != gather.transition(
                    state, r + period, inbox
                ):
                    return False
    return True


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gather_repeats_with_its_declared_period(n):
    gather = get_protocol("fts-over-ftr:phase-king-lite", n)
    assert gather.period == 3 * 2 * n
    assert _repeats_with_declared_period(gather, n, seed=2_800 + n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gather_around_a_wrong_inner_period_fails_the_period_check(n):
    # Negative control: n is not a period of phase-king-lite (the parity or
    # the king of the round changes), so three times n is none of the gather
    wrong = PhaseKingLite(n)
    wrong.period = n
    gather = GetCoreWrapper(wrong, n)
    assert gather.period == 3 * n
    assert not _repeats_with_declared_period(gather, n, seed=2_800 + n)


@pytest.mark.parametrize("n", [3, 4])
def test_gather_around_a_misdeclared_table_equals_its_reduced_round_run(n):
    # The gather declares three periods of its inner, so around a table that
    # declares period 2 the engine shows it the round modulo 6, and it shows
    # the table the simulated round modulo 2: the same run, state for state,
    # as the gather around the table behind a wrapper that reduces the round
    # itself.  The tagged table broadcasts the round it is shown, so each
    # simulated round's own message counts too.  The gather's audit passes.
    rng = random.Random(f"gather-shown-round-{n}")
    for seed in range(20):
        gather = GetCoreWrapper(TaggedTable(n, seed), n)
        reference = GetCoreWrapper(ReducedRound(TaggedTable(n, seed)), n)
        assert (gather.period, reference.period) == (6, None)
        inputs = tuple(rng.randrange(2) for _ in range(n))
        script = _gather_script(n, rng, 5)
        got = run(initial_configuration(gather, inputs), gather, "ftr", script, len(script),
                  keep_configs=True)
        assert got == run(initial_configuration(reference, inputs), reference, "ftr", script,
                          len(script), keep_configs=True), seed
        assert audit_stack(gather, got).ok, seed


@pytest.mark.parametrize("kind", [MisdeclaredTable, TaggedTable], ids=["misdeclared", "tagged"])
def test_synchronizer_audit_passes_on_misdeclared_tables(monkeypatch, kind):
    # The synchronizer shows its inner protocol the round as the engine
    # does, so a synchronized run of a table that reads the round modulo 3
    # or 4 but declares period 2 projects onto a trace that replays, and
    # its slowest processes hold the state the direct run reaches.
    n = 4
    for seed in range(20):
        monkeypatch.setitem(protocols._REGISTRY, kind(n, seed).protocol_id,
                            lambda n, seed=seed: kind(n, seed))
        proto = SynchronizerWrapper(kind(n, seed), n)
        inputs = tuple(seed >> i & 1 for i in range(n))
        _assert_synchronized_equals_direct(proto, inputs, horizon=300)
        assert audit_stack(proto, _synchronized_run(proto, inputs, 300)).ok, seed


def test_gather_around_an_unperiodic_inner_declares_no_period(float_mean):
    assert build_stack("fts-over-ftr", "naive-majority", 3).period is None
    assert build_stack("fts-over-ftr", "float-mean", 3).period is None


def test_get_core_requires_three():
    with pytest.raises(Exception):
        GetCoreWrapper(PhaseKingLite(3), 2)


# -- synchronizer ---------------------------------------------------------------


def test_rounds_advance_unboundedly_with_horizon():
    proto = SynchronizerWrapper(PhaseKingLite(3), 3)
    lows = []
    for horizon in (60, 120, 240):
        result = run_async((1, 0, 0), proto, RoundRobinScheduler(3), horizon=horizon)
        lows.append(min(len(s.internal.log) + 1 for s in result.final_state.states))
    assert lows[0] < lows[1] < lows[2]


def test_advance_needs_single_message_at_n3():
    # n-2 = 1: a process moves to round 2 after hearing one round-1 message
    proto = SynchronizerWrapper(PhaseKingLite(3), 3)
    from adversim.async_engine import initial_async_state, step_async

    state = initial_async_state(proto, (1, 0, 0))
    state, _ = step_async(state, proto, FlpStep(pid=0))  # broadcasts round 1
    msg = [m for m in state.in_flight if m.dest == 1][0]
    state, _ = step_async(state, proto, FlpStep(pid=1, deliver=msg.index))
    assert len(state.states[1].internal.log) == 1  # round 1 done: now in round 2


def test_projection_no_crash_validates():
    base = PhaseKingLite(3)
    proto = SynchronizerWrapper(base, 3)
    result = run_async((1, 1, 0), proto, RoundRobinScheduler(3), horizon=300)
    final = result.final_state
    proj = project_synchronized_run(
        [s.internal for s in final.states], final.crashed, base, (1, 1, 0)
    )
    assert proj.crashed is None
    assert proj.report.valid, proj.report.problems
    assert proj.min_round >= 20


def test_projection_with_crash_validates():
    base = PhaseKingLite(4)
    proto = SynchronizerWrapper(base, 4)
    sched = SeededFairScheduler(3)
    result = run_async((1, 0, 1, 0), proto, sched, horizon=600, crash=(1, 33))
    final = result.final_state
    assert final.crashed == 1
    proj = project_synchronized_run(
        [s.internal for s in final.states], final.crashed, base, (1, 0, 1, 0)
    )
    assert proj.report.valid, proj.report.problems
    assert proj.min_round >= 20
    assert proj.completed_rounds[1] < proj.min_round  # the crashed one lags


def test_projection_rejects_a_receiver_that_missed_two_senders():
    base = PhaseKingLite(3)
    proto = SynchronizerWrapper(base, 3)
    result = run_async((1, 0, 0), proto, RoundRobinScheduler(3), horizon=200)
    states = [s.internal for s in result.final_state.states]
    (_, out), *later = states[1].log
    states[1] = states[1]._replace(log=(((), out), *later))  # round 1 delivers nothing
    with pytest.raises(EmulationLemmaViolation, match="process 1 missed 2 senders in round 1"):
        project_synchronized_run(states, None, base, (1, 0, 0))


def test_a_duplicate_delivery_reaches_the_projection():
    # the buffer keeps a duplicate, which counts toward the n-2 threshold:
    # process 1 completes round 1 having heard process 0 alone
    base = PhaseKingLite(4)
    proto = SynchronizerWrapper(base, 4)
    states, sent = [], []
    for q in range(4):
        state, ((_, message),), _ = proto.step(proto.init(q, 1), None)
        states.append(state)
        sent.append((q, message))
    for q in range(4):
        for incoming in [sent[0]] * 2 if q == 1 else [m for m in sent if m[0] != q][:2]:
            states[q], _, _ = proto.step(states[q], incoming)
    assert [s.log[0][0] for s in states] == [(1, 2), (0,), (0, 1), (0, 1)]
    with pytest.raises(EmulationLemmaViolation, match="process 1 missed 2 senders in round 1"):
        project_synchronized_run(states, None, base, (1,) * 4)


def test_projection_trace_is_plain_ftr():
    base = PhaseKingLite(3)
    proto = SynchronizerWrapper(base, 3)
    result = run_async((1, 0, 0), proto, RoundRobinScheduler(3), horizon=200)
    final = result.final_state
    proj = project_synchronized_run(
        [s.internal for s in final.states], final.crashed, base, (1, 0, 0)
    )
    assert proj.trace.model == "ftr"
    assert proj.trace.protocol == "phase-king-lite"
    report = validate_trace(proj.trace)
    assert report.valid


# -- piggyback --------------------------------------------------------------------


def _piggy(n=3):
    inner = SynchronizerWrapper(PhaseKingLite(n), n)
    return PiggybackWrapper(inner, n)


def test_no_drops_delivers_within_one_round():
    n = 3
    proto = _piggy(n)
    config = initial_configuration(proto, (1, 0, 0))
    result = run(config, proto, "ftr", (), horizon=20, keep_configs=True)
    ledger = piggyback_ledger(result.configs)
    assert ledger
    for entry in ledger:
        if entry.sent_round <= 18:
            assert entry.fully_delivered(n)
            assert entry.max_lag() <= 1


def test_silent_sender_everyone_else_delivered():
    n = 3
    p = 2
    proto = _piggy(n)
    silenced = repeat(silence(p, n, "ftr"))
    config = initial_configuration(proto, (1, 1, 0))
    result = run(config, proto, "ftr", silenced, horizon=30, keep_configs=True)
    ledger = piggyback_ledger(result.configs)
    others = [e for e in ledger if e.sender != p and e.sent_round <= 27]
    assert others
    for entry in others:
        assert entry.fully_delivered(n), entry
    from_p = [e for e in ledger if e.sender == p]
    assert all(not e.deliveries for e in from_p)  # p's messages never arrive


def test_drop_then_relent_delivers_via_piggyback():
    # drop the only real message carrying a fresh simulated send; the copy
    # rides along on the next round's broadcasts instead
    n = 3
    proto = _piggy(n)
    config = initial_configuration(proto, (1, 0, 0))
    # simulated sends enter seen-sets during round 1; real round 2 carries
    # them; make process 1 miss process 0's round-2 broadcast, then relent
    faults = [ReceiveFault({}), ReceiveFault({1: 0}), ReceiveFault({})]
    result = run(config, proto, "ftr", faults, horizon=4, keep_configs=True)
    ledger = piggyback_ledger(result.configs)
    lagged = [
        e
        for e in ledger
        if e.sender == 0 and e.sent_round == 1 and dict(e.deliveries).get(1) == 3
    ]
    assert lagged, "dropped copy must arrive one round later via another carrier"


def test_seen_cap_enforced(monkeypatch):
    monkeypatch.setattr(simulations, "MAX_SIMULATED_MESSAGES", 5)
    proto = _piggy(3)
    config = initial_configuration(proto, (1, 0, 0))
    with pytest.raises(Exception) as info:
        run(config, proto, "ftr", (), horizon=20)
    assert isinstance(info.value.__cause__, ResourceLimitError) or isinstance(
        info.value, ResourceLimitError
    )


def test_seen_cap_boundary(monkeypatch):
    # A process may know exactly MAX_SIMULATED_MESSAGES simulated messages;
    # knowing one more raises.  What a transition knows is everything its
    # next state holds but the sends it appends to its own log.
    proto = _piggy(3)
    start = initial_configuration(proto, (1, 0, 0))
    configs = run(start, proto, "ftr", (), horizon=8, keep_configs=True).configs
    known = max(
        sum(map(len, new.internal.logs)) - len(new.internal.logs[q]) + len(old.internal.logs[q])
        for before, after in zip(configs, configs[1:])
        for q, (old, new) in enumerate(zip(before.states, after.states))
    )
    monkeypatch.setattr(simulations, "MAX_SIMULATED_MESSAGES", known)
    assert run(start, proto, "ftr", (), horizon=8).final_config == configs[-1]
    monkeypatch.setattr(simulations, "MAX_SIMULATED_MESSAGES", known - 1)
    with pytest.raises(EngineError) as info:
        run(start, proto, "ftr", (), horizon=8)
    assert isinstance(info.value.__cause__, ResourceLimitError)


# The piggyback as first written: every process keeps the set of every
# simulated message it has seen and broadcasts all of it, sorted, each round.
# The wrapper under test must deliver exactly what this one delivers.


@dataclass(frozen=True)
class SeenSetState:
    pid: int
    inner: Any
    started: bool
    next_seq: int
    my_sends: tuple = ()  # (seq, dest, payload, round sent)
    others: frozenset = frozenset()  # (sender, seq, dest, payload)
    delivered: tuple = ()  # ((sender, seq), round delivered)


def _entry_key(entry):
    sender, seq, dest, payload = entry
    return (sender, seq, -1 if dest is None else dest, payload)


class SeenSetPiggyback(RoundProtocol):
    def __init__(self, inner, n):
        self.inner = inner
        self.n = n
        self.protocol_id = f"flp-over-ftr:{inner.protocol_id}"

    def init(self, pid, input):
        return SeenSetState(pid=pid, inner=self.inner.init(pid, input), started=False, next_seq=0)

    def message(self, internal, round):
        sends = tuple((seq, dest, payload) for seq, dest, payload, _ in internal.my_sends)
        return (sends, tuple(sorted(internal.others, key=_entry_key)))

    def transition(self, internal, round, received):
        others = set(internal.others)
        for sender, (their_sends, their_others) in received.items():
            others.update((sender, seq, dest, payload) for seq, dest, payload in their_sends)
            others.update(entry for entry in their_others if entry[0] != internal.pid)
        inner = internal.inner
        delivered_ids = {mid for mid, _ in internal.delivered}
        delivered = list(internal.delivered)
        outbox = []
        output = None
        stepped = False

        def take(step_incoming):
            nonlocal inner, output, stepped
            inner, sends, out = self.inner.step(inner, step_incoming)
            outbox.extend(sends)
            stepped = True
            if output is None and out is not None:
                output = out

        if not internal.started:
            take(None)
        pending = sorted(
            (
                entry
                for entry in others
                if (entry[0], entry[1]) not in delivered_ids
                and (entry[2] == internal.pid or entry[2] is None)
            ),
            key=_entry_key,
        )
        for sender, seq, dest, payload in pending:
            take((sender, payload))
            delivered.append(((sender, seq), round))
            delivered_ids.add((sender, seq))
        if not stepped:
            take(None)
        my_sends = list(internal.my_sends)
        next_seq = internal.next_seq
        for dest, payload in outbox:
            my_sends.append((next_seq, dest, payload, round))
            next_seq += 1
        state = SeenSetState(
            pid=internal.pid,
            inner=inner,
            started=True,
            next_seq=next_seq,
            my_sends=tuple(my_sends),
            others=frozenset(others),
            delivered=tuple(delivered),
        )
        return state, output


def _seen_set_ledger(config):
    deliveries = {}
    for q, state in enumerate(config.states):
        for mid, round in state.internal.delivered:
            deliveries.setdefault(mid, []).append((q, round))
    return [
        LedgerEntry(p, seq, dest, sent_round, tuple(sorted(deliveries.get((p, seq), []))))
        for p, state in enumerate(config.states)
        for seq, dest, _payload, sent_round in state.internal.my_sends
    ]


@st.composite
def _receive_fault_scripts(draw):
    n = draw(st.sampled_from([3, 4]))
    drop = st.one_of(st.none(), st.integers(0, n - 2))  # index among the other processes
    faults = []
    for _ in range(draw(st.integers(1, 12))):
        dropped = {}
        for q in range(n):
            k = draw(drop)
            if k is not None:
                dropped[q] = [s for s in range(n) if s != q][k]
        faults.append(ReceiveFault(dropped))
    inputs = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return n, inputs, faults


@settings(max_examples=60, deadline=None)
@given(case=_receive_fault_scripts(), inner_kind=st.sampled_from(["synchronizer", "relay"]))
def test_piggyback_matches_seen_set_reference(case, inner_kind):
    n, inputs, faults = case
    inner = SynchronizerWrapper(PhaseKingLite(n), n) if inner_kind == "synchronizer" else Relay(n)
    wrapper = PiggybackWrapper(inner, n)
    reference = SeenSetPiggyback(inner, n)
    configs = [initial_configuration(wrapper, inputs)]
    expected = initial_configuration(reference, inputs)
    for fault in faults:
        configs.append(step_ftr(configs[-1], wrapper, fault))
        expected = step_ftr(expected, reference, fault)
        assert configs[-1].outputs() == expected.outputs()
        for got, want in zip(configs[-1].states, expected.states):
            assert got.internal.inner == want.internal.inner
        assert piggyback_ledger(configs) == _seen_set_ledger(expected)


def test_relay_traffic_reaches_message_cap():
    # Relay sends two messages per step and the wrapper takes one step per
    # delivered message, so the known traffic doubles every round.
    proto = PiggybackWrapper(Relay(3), 3)
    config = initial_configuration(proto, (0, 1, 0))
    with pytest.raises(AdversimError) as info:
        run(config, proto, "ftr", (), horizon=30)
    assert isinstance(info.value.__cause__, ResourceLimitError)


def test_audit_counts_unicasts_delivered_to_their_addressee():
    # Relay sends only unicasts; six rounds stay far below the message cap
    n = 3
    proto = PiggybackWrapper(Relay(n), n)
    faults = random_faults(n, random.Random(1), "ftr", False)
    config = initial_configuration(proto, (0, 1, 0))
    result = run(config, proto, "ftr", faults, horizon=6, keep_configs=True)
    ledger = piggyback_ledger(result.configs)
    assert all(e.dest is not None for e in ledger)
    got = [{q for q, _ in e.deliveries} for e in ledger]
    delivered = sum(g == {e.dest} for e, g in zip(ledger, got))
    assert 0 < delivered < len(ledger)
    audit = audit_stack(proto, result)
    assert audit.ok
    assert audit.summary == (
        f"{len(ledger)} simulated messages, {len(ledger) - delivered} not fully delivered"
    )


class SelfSender(AsyncProtocol):
    """Every step sends one message to its own process."""

    protocol_id = "self-sender"

    def init(self, pid, input_bit):
        return pid

    def step(self, internal, incoming):
        return internal, [(internal, b"x")], None


def test_piggyback_refuses_a_send_to_self():
    proto = PiggybackWrapper(SelfSender(), 3)
    config = initial_configuration(proto, (0, 1, 0))
    with pytest.raises(EngineError) as info:
        run(config, proto, "ftr", (), horizon=2)
    cause = info.value.__cause__
    assert type(cause) is AdversimError and str(cause) == "a process never sends to itself"


def test_piggyback_needs_three_processes():
    # every command refuses n < 3 at the synchronizer first; only the library gets here
    with pytest.raises(ValueError, match=r"^piggybacked delivery needs n >= 3$"):
        PiggybackWrapper(SynchronizerWrapper(protocols.Constant(0), 3), 2)


# -- stacks -----------------------------------------------------------------------


def test_stack_models():
    assert stack_model("fts-over-ftr") == "ftr"
    assert stack_model("ftr-over-flp") == "flp"
    assert stack_model("flp-over-ftr") == "ftr"
    assert stack_model("fts-over-ftr-over-flp") == "flp"


def test_build_stack_two_level():
    proto = build_stack("fts-over-ftr", "phase-king-lite", 3)
    assert proto.protocol_id == "fts-over-ftr:phase-king-lite"
    result = run(
        initial_configuration(proto, (1, 1, 0)), proto, "ftr", (), horizon=12
    )
    assert result.final_config.outputs() == {0: 1, 1: 1, 2: 1}


def test_build_stack_three_level_runs_async():
    proto = build_stack("fts-over-ftr-over-flp", "phase-king-lite", 3)
    result = run_async((1, 1, 0), proto, RoundRobinScheduler(3), horizon=500)
    assert result.final_state.outputs() == {0: 1, 1: 1, 2: 1}


def test_build_stack_flp_over_ftr_bridges_round_protocols():
    proto = build_stack("flp-over-ftr", "phase-king-lite", 3)
    assert proto.protocol_id == "flp-over-ftr:phase-king-lite"
    result = run(
        initial_configuration(proto, (1, 1, 0)), proto, "ftr", (), horizon=25
    )
    assert result.final_config.outputs() == {0: 1, 1: 1, 2: 1}


def test_build_stack_rejects_garbage():
    from adversim.core import AdversimError

    with pytest.raises(AdversimError):
        build_stack("fts", "phase-king-lite", 3)
    with pytest.raises(AdversimError):
        build_stack("fts-over-flp", "phase-king-lite", 3)
    with pytest.raises(AdversimError):
        build_stack("ftr-over-xyz", "phase-king-lite", 3)


@pytest.mark.parametrize("stack", ["fts-over-ftr", "ftr-over-flp"])
def test_build_stack_rejects_asynchronous_base_under_round_models(stack):
    with pytest.raises(UnknownProtocolError, match="is asynchronous"):
        build_stack(stack, "ftr-over-flp:phase-king-lite", 3)


@pytest.mark.parametrize(
    "state, plain",
    [
        (GetCoreState(0, "s", frozenset()), (0, "s", frozenset())),
        (SynchronizerState("s", True, ()), ("s", True, (), ())),
        (PiggybackState(2, "s", ((), (), ())), (2, "s", ((), (), ()))),
    ],
    ids=["gather", "synchronizer", "piggyback"],
)
def test_wrapper_states_are_plain_tuples(state, plain):
    assert state == plain and hash(state) == hash(plain)
    with pytest.raises(AttributeError):
        state.pid = 5


def test_stack_traces_validate():
    proto = build_stack("fts-over-ftr", "phase-king-lite", 3)
    silenced = repeat(silence(0, 3, "ftr"))
    result = run(initial_configuration(proto, (1, 0, 0)), proto, "ftr", silenced, horizon=9)
    report = validate_trace(result.trace)
    assert report.valid, report.problems
