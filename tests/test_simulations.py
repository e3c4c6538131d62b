"""Model reductions: gather core, synchronizer projection, piggyback ledger."""

import random
from itertools import repeat
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from adversim import protocols, simulations
from adversim.core import (
    AdversimError,
    ReceiveFault,
    RoundProtocol,
    UnknownProtocolError,
    initial_configuration,
    validate_trace,
)
from adversim.async_engine import RoundRobinScheduler, SeededFairScheduler, run_async
from adversim.protocols import phase_king_lite
from adversim.simulations import (
    EmulationLemmaViolation,
    GetCoreState,
    LedgerEntry,
    PiggybackState,
    ResourceLimitError,
    SynchronizerState,
    audit_stack,
    build_stack,
    classify_delivery,
    core_set,
    get_core_wrap,
    getcore_equivalent,
    getcore_rounds,
    piggyback_ledger,
    piggyback_wrap,
    project_synchronized_run,
    stack_model,
    synchronizer_wrap,
)
from adversim.sync_engine import (
    NO_FAULT,
    RoundFault,
    enumerate_faults,
    random_faults,
    run,
    silence,
    step_fts,
    step_ftr,
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
    rounds = getcore_rounds(configs, faults)
    assert len(rounds) >= 4
    for rep in rounds:
        direct = step_fts(direct, base, rep.fault)
        wrapped = configs[3 * rep.sim_round]
        assert [s.internal.inner for s in wrapped.states] == [s.internal for s in direct.states]
        assert wrapped.outputs() == direct.outputs()
    assert len(direct.outputs()) == n
    assert all(isinstance(s.internal, float) for s in direct.states)


def _assert_synchronized_equals_direct(protocol, inputs, horizon):
    """A synchronized asynchronous run projects onto a valid fail-to-receive
    trace, and the slowest live processes hold exactly the state that the
    direct run of the inner protocol under that trace reaches."""
    sched = SeededFairScheduler(len(inputs), 5)
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
    sched = SeededFairScheduler(len(inputs), 5)
    return run_async(inputs, proto, sched, horizon=horizon)


@pytest.mark.parametrize("seed", range(4))
def test_gather_audit_matches_reference(float_mean, seed):
    n, inputs = 4, (1, 0, 0, 1)
    proto, result = _gather_run(n, inputs, seed)
    faults = [step.fault for step in result.trace.steps]
    _assert_gather_equals_direct(result.configs, faults, n, inputs)
    rounds = getcore_rounds(result.configs, faults)
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
    assert not getcore_equivalent(proto.inner, tampered.configs, getcore_rounds(tampered.configs))
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
    r, received, out = log[3]
    assert r == 4 and out is not None  # float-mean outputs in round 4
    log[3] = (r, received, 1 - out)
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
    result = run(initial_configuration(proto, inputs), proto, "ftr", faults, horizon=20)
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
    base = phase_king_lite(n)
    wrapped = get_core_wrap(base, n)
    config = initial_configuration(wrapped, inputs)
    result = run(config, wrapped, "ftr", faults, horizon=3 * rounds, keep_configs=True)
    return base, result


def test_no_drops_full_delivery():
    _, result = _wrapped_run(3, (1, 0, 0), [])
    rep = getcore_rounds(result.configs)[0]
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
    rep = getcore_rounds(result.configs)[0]
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
        rep = getcore_rounds(result.configs)[0]
        assert len(rep.core) >= n - 1


def test_wrapped_decisions_agree_with_direct_run():
    n = 3
    base, result = _wrapped_run(n, (1, 1, 0), [], rounds=4)
    outs = result.final_config.outputs()
    assert outs == {0: 1, 1: 1, 2: 1}  # failure-free majority decision


def test_core_set_and_classify_hand_cases():
    delivery = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    assert core_set(delivery, 3) == {0, 1, 2}
    assert classify_delivery(delivery, 3) == NO_FAULT
    partial = {0: (2,), 1: (0, 2), 2: (0,)}
    assert core_set(partial, 3) == {0, 2}
    assert classify_delivery(partial, 3) == RoundFault(1, [0, 2])
    broken = {0: (2,), 1: (0,), 2: (0, 1)}  # 0 misses 1, 1 misses 2
    assert len(core_set(broken, 3)) < 2
    with pytest.raises(EmulationLemmaViolation):
        classify_delivery(broken, 3)


def test_lemma_violation_carries_script():
    err = EmulationLemmaViolation("core too small", script=[ReceiveFault({0: 1})])
    assert err.script is not None
    assert "fault script" in str(err)


def test_counting_bound_behind_the_lemma():
    for n in range(3, 11):
        assert n * (n - 2) > n * (n - 3)


def test_get_core_requires_three():
    with pytest.raises(Exception):
        get_core_wrap(phase_king_lite(3), 2)


# -- synchronizer ---------------------------------------------------------------


def test_rounds_advance_unboundedly_with_horizon():
    proto = synchronizer_wrap(phase_king_lite(3), 3)
    lows = []
    for horizon in (60, 120, 240):
        result = run_async((1, 0, 0), proto, RoundRobinScheduler(3), horizon=horizon)
        lows.append(min(s.internal.round for s in result.final_state.states))
    assert lows[0] < lows[1] < lows[2]


def test_advance_needs_single_message_at_n3():
    # n-2 = 1: a process moves to round 2 after hearing one round-1 message
    proto = synchronizer_wrap(phase_king_lite(3), 3)
    from adversim.async_engine import AsyncEvent, initial_async_state, step_async

    state = initial_async_state(proto, (1, 0, 0))
    state, _ = step_async(state, proto, AsyncEvent(pid=0))  # broadcasts round 1
    msg = [m for m in state.in_flight if m.dest == 1][0]
    state, _ = step_async(state, proto, AsyncEvent(pid=1, deliver=msg.index))
    assert state.states[1].internal.round == 2


def test_projection_no_crash_validates():
    base = phase_king_lite(3)
    proto = synchronizer_wrap(base, 3)
    result = run_async((1, 1, 0), proto, RoundRobinScheduler(3), horizon=300)
    final = result.final_state
    proj = project_synchronized_run(
        [s.internal for s in final.states], final.crashed, base, (1, 1, 0)
    )
    assert proj.crashed is None
    assert proj.report.valid, proj.report.problems
    assert proj.min_round >= 20


def test_projection_with_crash_validates():
    base = phase_king_lite(4)
    proto = synchronizer_wrap(base, 4)
    sched = SeededFairScheduler(4, 3, crash=(1, 33))
    result = run_async((1, 0, 1, 0), proto, sched, horizon=600)
    final = result.final_state
    assert final.crashed == 1
    proj = project_synchronized_run(
        [s.internal for s in final.states], final.crashed, base, (1, 0, 1, 0)
    )
    assert proj.report.valid, proj.report.problems
    assert proj.min_round >= 20
    assert proj.completed_rounds[1] < proj.min_round  # the crashed one lags


def test_projection_trace_is_plain_ftr():
    base = phase_king_lite(3)
    proto = synchronizer_wrap(base, 3)
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
    inner = synchronizer_wrap(phase_king_lite(n), n)
    return piggyback_wrap(inner, n)


def test_no_drops_delivers_within_one_round():
    n = 3
    proto = _piggy(n)
    result = run(initial_configuration(proto, (1, 0, 0)), proto, "ftr", (), horizon=20)
    ledger = piggyback_ledger(result.final_config)
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
    result = run(initial_configuration(proto, (1, 1, 0)), proto, "ftr", silenced, horizon=30)
    ledger = piggyback_ledger(result.final_config)
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
    result = run(config, proto, "ftr", faults, horizon=4)
    ledger = piggyback_ledger(result.final_config)
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
    inner = synchronizer_wrap(phase_king_lite(n), n) if inner_kind == "synchronizer" else Relay(n)
    wrapper = piggyback_wrap(inner, n)
    reference = SeenSetPiggyback(inner, n)
    config = initial_configuration(wrapper, inputs)
    expected = initial_configuration(reference, inputs)
    for fault in faults:
        config = step_ftr(config, wrapper, fault)
        expected = step_ftr(expected, reference, fault)
        assert config.outputs() == expected.outputs()
        for got, want in zip(config.states, expected.states):
            assert got.internal.inner == want.internal.inner
            assert got.internal.delivered == want.internal.delivered
    assert piggyback_ledger(config) == _seen_set_ledger(expected)


def test_relay_traffic_reaches_message_cap():
    # Relay sends two messages per step and the wrapper takes one step per
    # delivered message, so the known traffic doubles every round.
    proto = piggyback_wrap(Relay(3), 3)
    config = initial_configuration(proto, (0, 1, 0))
    with pytest.raises(AdversimError) as info:
        run(config, proto, "ftr", (), horizon=30)
    assert isinstance(info.value.__cause__, ResourceLimitError)


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
        (GetCoreState(0, "s", 1, 2, frozenset()), (0, "s", 1, 2, frozenset(), None)),
        (SynchronizerState(1, "s", 3, True, frozenset()), (1, "s", 3, True, frozenset(), ())),
        (PiggybackState(2, "s", False, ((), (), ())), (2, "s", False, ((), (), ()), (), ())),
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
