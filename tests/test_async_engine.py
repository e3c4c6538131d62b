"""Asynchronous engine: events, crashes, schedulers, fairness, replay."""

from dataclasses import dataclass, replace
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from adversim.async_engine import (
    AsyncEvent,
    RoundRobinScheduler,
    ScheduleError,
    Scheduler,
    ScriptedScheduler,
    SeededFairScheduler,
    initial_async_state,
    replay_flp_steps,
    run_async,
    step_async,
)
from adversim.core import AdversimError, AsyncProtocol, LocalState
from adversim.protocols import phase_king_lite
from adversim.simulations import synchronizer_wrap


def _sync(n=3):
    return synchronizer_wrap(phase_king_lite(n), n)


def test_first_step_sends_without_delivery():
    proto = _sync()
    state = initial_async_state(proto, (1, 0, 0))
    state, wrote = step_async(state, proto, AsyncEvent(pid=0))
    assert wrote == ()
    assert len(state.in_flight) == 2  # round-1 broadcast to the two others
    assert all(m.sender == 0 and m.dest != 0 for m in state.in_flight)


def test_initial_state_rejects_bad_inputs():
    proto = _sync()
    with pytest.raises(AdversimError, match="inputs must be binary, got 2"):
        initial_async_state(proto, (1, 2, 0))
    with pytest.raises(AdversimError, match="need at least 2 processes"):
        initial_async_state(proto, (1,))


def test_engine_records_are_plain_tuples():
    assert AsyncEvent(2) == (2, None, False)
    proto = _sync()
    state = initial_async_state(proto, (1, 0, 0))
    state, _ = step_async(state, proto, AsyncEvent(0))
    msg = state.queues[1][0]
    plain_msg = (0, 1, msg.payload, 0, 0)
    assert msg == plain_msg and hash(msg) == hash(plain_msg)
    plain = (state.states, state.queues, None, 2, 1)
    assert state == plain and hash(state) == hash(plain)
    crashed, _ = step_async(state, proto, AsyncEvent(1, crash=True))
    assert crashed == state._replace(crashed=1, step_count=2)
    for value in (msg, state, AsyncEvent(0)):
        with pytest.raises(AttributeError):
            value.pid = 1


def test_crash_removes_process_from_schedulable_set():
    proto = _sync()
    state = initial_async_state(proto, (1, 0, 0))
    state, _ = step_async(state, proto, AsyncEvent(pid=1, crash=True))
    assert state.crashed == 1
    assert state.live() == [0, 2]
    with pytest.raises(ScheduleError):
        step_async(state, proto, AsyncEvent(pid=1))
    with pytest.raises(ScheduleError):
        step_async(state, proto, AsyncEvent(pid=2, crash=True))  # at most one crash


def test_delivery_validation():
    proto = _sync()
    state = initial_async_state(proto, (1, 0, 0))
    with pytest.raises(ScheduleError):
        step_async(state, proto, AsyncEvent(pid=0, deliver=0))  # nothing in flight
    state, _ = step_async(state, proto, AsyncEvent(pid=0))
    msg = state.in_flight[0]
    wrong = [q for q in range(3) if q not in (msg.dest, 0)][0]
    with pytest.raises(ScheduleError):
        step_async(state, proto, AsyncEvent(pid=wrong, deliver=msg.index))


def test_message_conservation():
    proto = _sync()
    result = run_async((1, 0, 0), proto, RoundRobinScheduler(3), horizon=200)
    delivered = [s.deliver for s in result.trace.steps if s.deliver is not None]
    assert len(delivered) == len(set(delivered)), "a message was delivered twice"
    still_in_flight = {m.index for m in result.final_state.in_flight}
    sent = result.final_state.next_index
    assert set(delivered) | still_in_flight <= set(range(sent))
    assert len(delivered) + len(still_in_flight) == sent


def test_deliver_then_step_replay_equality():
    proto = _sync()
    sched = SeededFairScheduler(3, 5)
    first = run_async((1, 0, 0), proto, sched, horizon=150)
    events = [AsyncEvent(s.pid, s.deliver, s.crash) for s in first.trace.steps]
    second = run_async((1, 0, 0), proto, ScriptedScheduler(events), horizon=150)
    assert second.trace == first.trace
    assert second.final_state == first.final_state


def test_round_robin_fairness_passes():
    proto = _sync()
    result = run_async(
        (1, 0, 0), proto, RoundRobinScheduler(3), horizon=300, fairness_window=12
    )
    assert result.fairness.ok, result.fairness.violations


def test_starving_scheduler_flagged():
    class Starver(Scheduler):
        def __init__(self):
            self._flip = 0

        def next_event(self, state):
            self._flip = 1 - self._flip  # steps only processes 0 and 1
            pid = self._flip
            msgs = [m.index for m in state.queues[pid]]
            return AsyncEvent(pid=pid, deliver=min(msgs) if msgs else None)

    proto = _sync()
    result = run_async((1, 0, 0), proto, Starver(), horizon=60, fairness_window=10)
    assert not result.fairness.ok
    assert any("process 2 unstepped" in v for v in result.fairness.violations)


def test_messages_to_crashed_process_exempt_from_fairness():
    proto = _sync()
    sched = RoundRobinScheduler(3, crash=(2, 9))
    result = run_async((1, 0, 0), proto, sched, horizon=300, fairness_window=15)
    assert result.final_state.crashed == 2
    assert result.fairness.ok, result.fairness.violations


def test_same_seed_identical_traces_long_horizon():
    proto = _sync()
    a = run_async((1, 0, 0), proto, SeededFairScheduler(3, 77), horizon=2000)
    b = run_async((1, 0, 0), proto, SeededFairScheduler(3, 77), horizon=2000)
    assert a.trace.to_jsonl() == b.trace.to_jsonl()


def test_different_seed_differs():
    proto = _sync()
    a = run_async((1, 0, 0), proto, SeededFairScheduler(3, 1), horizon=200)
    b = run_async((1, 0, 0), proto, SeededFairScheduler(3, 2), horizon=200)
    assert a.trace != b.trace


def test_replay_flp_steps_matches_recorded_outputs():
    proto = _sync()
    result = run_async((1, 1, 0), proto, RoundRobinScheduler(3), horizon=120)
    per_step = replay_flp_steps(result.trace, _sync())
    assert [s.outputs for s in result.trace.steps] == per_step


def test_crashed_trace_validates_and_single_crash_enforced():
    from adversim.core import validate_trace

    proto = _sync()
    sched = RoundRobinScheduler(3, crash=(1, 20))
    result = run_async((1, 0, 0), proto, sched, horizon=150)
    report = validate_trace(result.trace)
    assert report.valid, report.problems
    crashes = [s for s in result.trace.steps if s.crash]
    assert len(crashes) == 1 and crashes[0].pid == 1
    assert all(s.pid != 1 for s in result.trace.steps[21:])


# -- differential test against the flat-tuple delivery rules -------------------


@dataclass(frozen=True)
class FlatState:
    """Every message in flight in one tuple of (index, sender, dest, payload,
    sent_at), in send order: the engine's delivery rules before it kept one
    queue per destination."""

    states: tuple
    in_flight: tuple
    crashed: Optional[int]
    next_index: int
    step_count: int


def flat_step(state, protocol, event):
    n = len(state.states)
    if not 0 <= event.pid < n:
        raise ScheduleError(f"pid {event.pid} out of range")
    if event.crash:
        if state.crashed is not None:
            raise ScheduleError(f"second crash ({event.pid}); {state.crashed} already crashed")
        if event.deliver is not None:
            raise ScheduleError("a crash event delivers nothing")
        return replace(state, crashed=event.pid, step_count=state.step_count + 1), ()
    if event.pid == state.crashed:
        raise ScheduleError(f"crashed process {event.pid} cannot step")
    in_flight, incoming = state.in_flight, None
    if event.deliver is not None:
        found = [m for m in in_flight if m[0] == event.deliver]
        if not found:
            raise ScheduleError(f"message {event.deliver} is not in flight")
        _, sender, dest, payload, _ = found[0]
        if dest != event.pid:
            raise ScheduleError(f"message {event.deliver} is addressed to {dest}, not {event.pid}")
        incoming = (sender, payload)
        in_flight = tuple(m for m in in_flight if m[0] != event.deliver)
    local = state.states[event.pid]
    internal, sends, out = protocol.step(local.internal, incoming)
    index = state.next_index
    for dest, payload in sends:
        for d in ([q for q in range(n) if q != event.pid] if dest is None else [dest]):
            in_flight += ((index, event.pid, d, payload, state.step_count),)
            index += 1
    new_local = LocalState(local.input, internal, local.output).write(out)
    wrote = ()
    if local.output is None and new_local.output is not None:
        wrote = ((event.pid, new_local.output),)
    states = tuple(new_local if q == event.pid else s for q, s in enumerate(state.states))
    return FlatState(states, in_flight, state.crashed, index, state.step_count + 1), wrote


class Relay(AsyncProtocol):
    """Sends two messages per step, to its predecessor and then to a rotating
    addressee, so one step's sends are not always in ascending destination
    order; writes the parity of its step count once it has heard four
    messages."""

    protocol_id = "relay"

    def __init__(self, n):
        self.n = n

    def init(self, pid, input_bit):
        return (pid, 0, 0)

    def step(self, internal, incoming):
        pid, steps, heard = internal
        heard += incoming is not None
        dests = ((pid - 1) % self.n, (pid + 1 + steps % (self.n - 1)) % self.n)
        out = steps % 2 if heard >= 4 else None
        return (pid, steps + 1, heard), [(d, (pid, steps)) for d in dests], out


# Recorded from the engine that kept every message in one flat tuple.  The
# messages come due to processes 0, 1 and 2 interleaved; under Relay one step
# sends to process 1 and then to process 0.  Messages to the crashed process
# stop counting once it crashes.
CRASHED_RUN_VIOLATIONS = {
    "synchronizer": [
        "message 5 to process 2 undelivered after 5 steps",
        "message 6 to process 0 undelivered after 5 steps",
        "message 8 to process 0 undelivered after 5 steps",
        "message 10 to process 1 undelivered after 5 steps",
        "message 11 to process 2 undelivered after 5 steps",
        "message 12 to process 1 undelivered after 5 steps",
        "message 14 to process 0 undelivered after 5 steps",
        "message 16 to process 0 undelivered after 5 steps",
        "message 17 to process 1 undelivered after 5 steps",
    ],
    "relay": [
        "message 9 to process 2 undelivered after 5 steps",
        "message 10 to process 0 undelivered after 5 steps",
        "message 13 to process 0 undelivered after 5 steps",
        "message 16 to process 0 undelivered after 5 steps",
        "message 17 to process 0 undelivered after 5 steps",
        "message 21 to process 1 undelivered after 5 steps",
        "message 22 to process 0 undelivered after 5 steps",
        "message 24 to process 1 undelivered after 5 steps",
        "message 28 to process 0 undelivered after 5 steps",
        "message 30 to process 1 undelivered after 5 steps",
        "message 31 to process 0 undelivered after 5 steps",
        "message 34 to process 0 undelivered after 5 steps",
        "message 35 to process 0 undelivered after 5 steps",
    ],
}


@pytest.mark.parametrize("name", sorted(CRASHED_RUN_VIOLATIONS))
def test_crashed_run_fairness_violations_in_send_order(name):
    if name == "synchronizer":
        args = ((1, 0, 0), _sync(), RoundRobinScheduler(3, crash=(2, 9)), 80)
    else:
        args = ((1, 0, 0, 1), Relay(4), RoundRobinScheduler(4, crash=(3, 7)), 24)
    result = run_async(*args, fairness_window=5)
    assert result.fairness.violations == CRASHED_RUN_VIOLATIONS[name]


def _view(state):
    return [(m.index, m.sender, m.dest, m.payload, m.sent_at) for m in state.in_flight]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 4),
    relay=st.booleans(),
    length=st.integers(1, 150),
    data=st.data(),
)
def test_queue_engine_matches_flat_delivery_rules(n, relay, length, data):
    proto = Relay(n) if relay else _sync(n)
    inputs = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    state = initial_async_state(proto, inputs)
    flat = FlatState(state.states, (), None, 0, 0)
    kinds = ["oldest"] * 4 + ["any"] * 2 + ["none", "index", "crash"]
    for _ in range(length):
        kind = data.draw(st.sampled_from(kinds))
        pid = data.draw(st.integers(-1, n) if kind == "index" else st.integers(0, n - 1))
        mine = [m[0] for m in flat.in_flight if m[2] == pid]
        deliver = None
        if kind == "oldest" and mine:
            deliver = mine[0]
        elif kind == "any" and mine:
            deliver = data.draw(st.sampled_from(mine))
        elif kind in ("index", "crash"):
            deliver = data.draw(st.none() | st.integers(-1, flat.next_index + 2))
        event = AsyncEvent(pid=pid, deliver=deliver, crash=kind == "crash")
        try:
            flat, flat_wrote = flat_step(flat, proto, event)
        except ScheduleError as exc:
            with pytest.raises(ScheduleError) as raised:
                step_async(state, proto, event)
            assert str(raised.value) == str(exc)
            continue
        state, wrote = step_async(state, proto, event)
        assert wrote == flat_wrote
        assert _view(state) == list(flat.in_flight)
        assert state.states == flat.states and state.crashed == flat.crashed
        for q in range(n):
            assert [m.index for m in state.queues[q]] == [
                m[0] for m in flat.in_flight if m[2] == q
            ]
