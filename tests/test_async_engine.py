"""Asynchronous engine: events, crashes, schedulers, fairness, replay."""

import random
from dataclasses import dataclass, replace
from itertools import takewhile
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from adversim.async_engine import (
    RoundRobinScheduler,
    ScheduleError,
    Scheduler,
    ScriptedScheduler,
    SeededFairScheduler,
    initial_async_state,
    run_async,
    step_async,
)
from adversim.core import AdversimError, AsyncProtocol, EngineError, FlpStep, LocalState
from adversim.protocols import PhaseKingLite
from adversim.simulations import SynchronizerWrapper


def _sync(n=3):
    return SynchronizerWrapper(PhaseKingLite(n), n)


def test_first_step_sends_without_delivery():
    proto = _sync()
    state = initial_async_state(proto, (1, 0, 0))
    state, wrote = step_async(state, proto, FlpStep(pid=0))
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
    assert FlpStep(2) == (2, None, False, ())
    proto = _sync()
    state = initial_async_state(proto, (1, 0, 0))
    state, _ = step_async(state, proto, FlpStep(0))
    msg = state.queues[1][0]
    plain_msg = (0, 1, msg.payload, 0)
    assert msg == plain_msg and hash(msg) == hash(plain_msg)
    plain = (state.states, state.queues, None, 2, 1)
    assert state == plain and hash(state) == hash(plain)
    crashed, _ = step_async(state, proto, FlpStep(1, crash=True))
    queues = (state.queues[0], (), state.queues[2])  # the crash empties its queue
    assert crashed == state._replace(queues=queues, crashed=1, step_count=2)
    for value in (msg, state, FlpStep(0)):
        with pytest.raises(AttributeError):
            value.pid = 1


def test_crash_removes_process_from_schedulable_set():
    proto = _sync()
    state = initial_async_state(proto, (1, 0, 0))
    state, _ = step_async(state, proto, FlpStep(pid=1, crash=True))
    assert state.crashed == 1
    assert state.live() == [0, 2]
    with pytest.raises(ScheduleError):
        step_async(state, proto, FlpStep(pid=1))
    with pytest.raises(ScheduleError):
        step_async(state, proto, FlpStep(pid=2, crash=True))  # at most one crash


def test_delivery_validation():
    proto = _sync()
    state = initial_async_state(proto, (1, 0, 0))
    with pytest.raises(ScheduleError):
        step_async(state, proto, FlpStep(pid=0, deliver=0))  # nothing in flight
    state, _ = step_async(state, proto, FlpStep(pid=0))
    msg = state.in_flight[0]
    wrong = [q for q in range(3) if q not in (msg.dest, 0)][0]
    with pytest.raises(ScheduleError):
        step_async(state, proto, FlpStep(pid=wrong, deliver=msg.index))


class Misbehaving(AsyncProtocol):
    """Process 0 steps quietly; any other process's step returns ``act(pid)``
    as its sends, or raises what ``act`` raises."""

    protocol_id = "misbehaving"

    def __init__(self, act):
        self.act = act

    def init(self, pid, input_bit):
        return pid

    def step(self, internal, incoming):
        return internal, [] if internal == 0 else self.act(internal), None


@pytest.mark.parametrize(
    "act, problem",
    [
        (lambda pid: 1 // 0, "step() failed: integer division or modulo by zero"),
        (lambda pid: [(pid, b"x")], "a process never sends to itself"),
        (lambda pid: [(3, b"x")], "send destination 3 out of range"),
    ],
    ids=["step-raises", "self-send", "destination-out-of-range"],
)
def test_protocol_faults_are_engine_errors_with_round_and_pid(act, problem):
    proto = Misbehaving(act)
    state, _ = step_async(initial_async_state(proto, (1, 0, 0)), proto, FlpStep(pid=0))
    with pytest.raises(EngineError) as info:
        step_async(state, proto, FlpStep(pid=1))
    assert (info.value.round, info.value.pid) == (1, 1)
    assert str(info.value) == f"round 1, process 1: {problem}"


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
    sched = SeededFairScheduler(5)
    first = run_async((1, 0, 0), proto, sched, horizon=150)
    second = run_async((1, 0, 0), proto, ScriptedScheduler(first.trace.steps), horizon=150)
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
            return FlpStep(pid=pid, deliver=min(msgs) if msgs else None)

    proto = _sync()
    result = run_async((1, 0, 0), proto, Starver(), horizon=60, fairness_window=10)
    assert not result.fairness.ok
    assert any("process 2 unstepped" in v for v in result.fairness.violations)


def test_messages_to_crashed_process_exempt_from_fairness():
    proto = _sync()
    result = run_async(
        (1, 0, 0), proto, RoundRobinScheduler(3), horizon=300, fairness_window=15, crash=(2, 9)
    )
    assert result.final_state.crashed == 2
    assert result.fairness.ok, result.fairness.violations


def test_same_seed_identical_traces_long_horizon():
    proto = _sync()
    a = run_async((1, 0, 0), proto, SeededFairScheduler(77), horizon=2000)
    b = run_async((1, 0, 0), proto, SeededFairScheduler(77), horizon=2000)
    assert a.trace.to_jsonl() == b.trace.to_jsonl()


def test_different_seed_differs():
    proto = _sync()
    a = run_async((1, 0, 0), proto, SeededFairScheduler(1), horizon=200)
    b = run_async((1, 0, 0), proto, SeededFairScheduler(2), horizon=200)
    assert a.trace != b.trace


def test_flp_trace_replays_through_scripted_scheduler():
    proto = _sync()
    result = run_async((1, 1, 0), proto, RoundRobinScheduler(3), horizon=120)
    replay = run_async((1, 1, 0), _sync(), ScriptedScheduler(result.trace.steps), horizon=120)
    assert replay.trace == result.trace


def test_crashed_trace_validates_and_single_crash_enforced():
    from adversim.core import validate_trace

    proto = _sync()
    result = run_async((1, 0, 0), proto, RoundRobinScheduler(3), horizon=150, crash=(1, 20))
    report = validate_trace(result.trace)
    assert report.valid, report.problems
    crashes = [s for s in result.trace.steps if s.crash]
    assert len(crashes) == 1 and crashes[0].pid == 1
    assert all(s.pid != 1 for s in result.trace.steps[21:])


# -- differential test against the flat-tuple delivery rules -------------------


@dataclass(frozen=True)
class FlatState:
    """Every message in flight in one tuple of (index, sender, dest, payload),
    in send order: the engine's delivery rules before it kept one queue per
    destination, with its crash rule: a crash drops the messages to the
    crashed process, and later sends to it use up their index but are
    dropped."""

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
        in_flight = tuple(m for m in state.in_flight if m[2] != event.pid)
        return replace(
            state, in_flight=in_flight, crashed=event.pid, step_count=state.step_count + 1
        ), ()
    if event.pid == state.crashed:
        raise ScheduleError(f"crashed process {event.pid} cannot step")
    in_flight, incoming = state.in_flight, None
    if event.deliver is not None:
        found = [m for m in in_flight if m[0] == event.deliver]
        if not found:
            raise ScheduleError(f"message {event.deliver} is not in flight")
        _, sender, dest, payload = found[0]
        if dest != event.pid:
            raise ScheduleError(f"message {event.deliver} is addressed to {dest}, not {event.pid}")
        incoming = (sender, payload)
        in_flight = tuple(m for m in in_flight if m[0] != event.deliver)
    local = state.states[event.pid]
    internal, sends, out = protocol.step(local.internal, incoming)
    index = state.next_index
    for dest, payload in sends:
        for d in ([q for q in range(n) if q != event.pid] if dest is None else [dest]):
            if d != state.crashed:
                in_flight += ((index, event.pid, d, payload),)
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
        args, crash = ((1, 0, 0), _sync(), RoundRobinScheduler(3), 80), (2, 9)
    else:
        args, crash = ((1, 0, 0, 1), Relay(4), RoundRobinScheduler(4), 24), (3, 7)
    result = run_async(*args, fairness_window=5, crash=crash)
    assert result.fairness.violations == CRASHED_RUN_VIOLATIONS[name]


def _view(state):
    return [(m.index, m.sender, m.dest, m.payload) for m in state.in_flight]


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
        event = FlpStep(pid=pid, deliver=deliver, crash=kind == "crash")
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
        assert state.next_index == flat.next_index
        for q in range(n):
            assert [m.index for m in state.queues[q]] == [
                m[0] for m in flat.in_flight if m[2] == q
            ]


# -- differential test against the rescanning fairness audit -------------------


def rescanning_audit(inputs, protocol, scheduler, horizon, window):
    """The audit before it checked each message once at its due step: after
    every event, rescan each live process and each live queue's overdue
    prefix, reporting what was not reported before.  A message's age counts
    from the step count before the event that sent it.  Returns the recorded
    steps and the violations."""
    state = initial_async_state(protocol, inputs)
    steps, violations = [], []
    reported_msgs, reported_pids = set(), set()
    last_stepped = {q: 0 for q in range(state.n)}
    sent_at = []  # by send index
    for _ in range(horizon):
        event = scheduler.next_event(state)
        before = state
        state, wrote = step_async(state, protocol, event)
        sent_at += [before.step_count] * (state.next_index - before.next_index)
        steps.append(FlpStep(event.pid, event.deliver, event.crash, wrote))
        if not event.crash:
            last_stepped[event.pid] = state.step_count
        now = state.step_count
        for q in state.live():
            if now - last_stepped[q] > window and q not in reported_pids:
                violations.append(
                    f"process {q} unstepped for more than {window} steps at step {now}"
                )
                reported_pids.add(q)
        cutoff = now - window
        overdue = (
            m
            for q in state.live()
            for m in takewhile(lambda m: sent_at[m.index] < cutoff, state.queues[q])
            if m.index not in reported_msgs
        )
        for m in sorted(overdue, key=lambda m: m.index):
            violations.append(
                f"message {m.index} to process {m.dest} undelivered after {window} steps"
            )
            reported_msgs.add(m.index)
    return tuple(steps), violations


class CrashingScheduler(Scheduler):
    """``scheduler`` that reads a crash directive itself, as the schedulers
    did before ``run_async`` took it: once ``crash[1]`` events have run and
    nobody has crashed, crash ``crash[0]`` without asking ``scheduler``."""

    def __init__(self, scheduler, crash):
        self.scheduler = scheduler
        self.crash = crash

    def next_event(self, state):
        if self.crash is not None and state.crashed is None and state.step_count >= self.crash[1]:
            return FlpStep(self.crash[0], crash=True)
        return self.scheduler.next_event(state)


class StarvingChooser(Scheduler):
    """Never steps process ``starved``; steps a seeded choice of the others,
    delivering any message addressed to it (not only the oldest) or none."""

    def __init__(self, seed, starved):
        self.rng = random.Random(seed)
        self.starved = starved

    def next_event(self, state):
        pid = self.rng.choice([q for q in state.live() if q != self.starved])
        queue = state.queues[pid]
        if not queue or self.rng.random() < 0.2:
            return FlpStep(pid)
        return FlpStep(pid, self.rng.choice(queue).index)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 5),
    relay=st.booleans(),
    kind=st.sampled_from(["round-robin", "seeded", "scripted"]),
    window=st.integers(1, 20),
    horizon=st.integers(0, 160),
    crash=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 160)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_due_step_audit_matches_rescanning_audit(
    n, relay, kind, window, horizon, crash, seed, data
):
    inputs = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    crash = None if crash is None else (crash[0] % n, crash[1])
    proto = Relay(n) if relay else _sync(n)

    def scheduler():
        if kind == "round-robin":
            return RoundRobinScheduler(n)
        if kind == "seeded":
            return SeededFairScheduler(seed)
        return StarvingChooser(seed, seed % n)

    reference = CrashingScheduler(scheduler(), crash)
    steps, violations = rescanning_audit(inputs, proto, reference, horizon, window)
    if kind == "scripted":  # replays the chooser's events, its crash and non-head deliveries
        result = run_async(inputs, proto, ScriptedScheduler(steps), horizon, fairness_window=window)
    else:
        result = run_async(inputs, proto, scheduler(), horizon, fairness_window=window, crash=crash)
    assert result.trace.steps == steps
    assert result.fairness.violations == violations


# -- run_async's crash directive replays the crash the schedulers once injected --


@pytest.mark.parametrize("at", [0, 1, 37, 119, 120, 500])
@pytest.mark.parametrize("kind", ["round-robin", "seeded"])
def test_run_async_crash_matches_scheduler_injected_crash(kind, at):
    horizon = 120
    for seed in range(6):
        n = 3 + seed % 3
        inputs = tuple(random.Random(seed).randrange(2) for _ in range(n))

        def scheduler():
            return RoundRobinScheduler(n) if kind == "round-robin" else SeededFairScheduler(seed)

        def protocol():
            return Relay(n) if seed % 2 else _sync(n)

        crash = (seed % n, at)
        old = run_async(inputs, protocol(), CrashingScheduler(scheduler(), crash), horizon,
                        fairness_window=6)
        new = run_async(inputs, protocol(), scheduler(), horizon, fairness_window=6, crash=crash)
        assert new.trace == old.trace
        assert new.final_state == old.final_state
        assert new.fairness == old.fairness
        assert new.final_state.crashed == (crash[0] if at < horizon else None)


# -- the crash rule: every queued message is one a live process can receive -----


class CountingSends(AsyncProtocol):
    """Its inner protocol, counting every message it sends (a broadcast as
    n - 1 messages)."""

    def __init__(self, inner, n):
        self.inner, self.n, self.sent = inner, n, 0
        self.protocol_id = inner.protocol_id

    def init(self, pid, input_bit):
        return self.inner.init(pid, input_bit)

    def step(self, internal, incoming):
        internal, sends, out = self.inner.step(internal, incoming)
        self.sent += sum(self.n - 1 if dest is None else 1 for dest, _ in sends)
        return internal, sends, out


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 5),
    relay=st.booleans(),
    crash=st.tuples(st.integers(0, 4), st.integers(0, 60)),
    horizon=st.integers(1, 150),
    seed=st.integers(0, 2**16),
)
def test_crash_empties_its_queue_and_later_sends_use_their_index(n, relay, crash, horizon, seed):
    proto = CountingSends(Relay(n) if relay else _sync(n), n)
    inputs = tuple(random.Random(seed).randrange(2) for _ in range(n))
    crashed = crash[0] % n
    scheduler = CrashingScheduler(StarvingChooser(seed, None), (crashed, crash[1]))
    state = initial_async_state(proto, inputs)
    for _ in range(horizon):
        state, _ = step_async(state, proto, scheduler.next_event(state))
        assert state.next_index == proto.sent
        if state.crashed is not None:
            assert all(m.dest != crashed for queue in state.queues for m in queue)
