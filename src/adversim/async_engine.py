"""Executor for the asynchronous message-passing model.

Processes take atomic steps in scheduler-chosen order; a step optionally
consumes one in-flight message addressed to the stepping process, updates
state, and sends any number of messages.  At most one process may crash-stop,
after which it takes no further steps and receives nothing: the crash drops
its queue, and a later send to it only uses up its index.  ``run_async``'s
``crash`` directive makes the crash, and schedulers only choose steps: fair
ones keep every live process stepping and deliver every message within a
bounded window, which a finite-horizon fairness check can audit on any run.

Messages in flight wait in one queue per destination, in send order, so a
step only ever looks at the stepping process's own queue.  The audit checks
each message once, at its due step: every event advances the step count by
one, so a message sent by the event that brings the count to s comes due
when it reaches s + window.  That is exact because a queue only loses
messages: one gone from its queue by its due step is never overdue later.

A scheduler's event is a ``core.FlpStep`` whose outputs the engine fills in.
The records built once per event (``InFlight``, ``LocalState``, ``FlpStep``
and ``AsyncSystemState``) are plain immutable tuples: each compares equal
to, and hashes like, the tuple of its fields, and a new one is built from
its field tuple with ``tuple.__new__``, never by mutation.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from itertools import chain, cycle
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (
    AdversimError,
    AsyncProtocol,
    EngineError,
    ExecutionTrace,
    FlpStep,
    LocalState,
    Payload,
    Pid,
    initial_configuration,
)


class ScheduleError(AdversimError):
    """Scheduler produced an event the current state cannot accept."""


class InFlight(NamedTuple):
    sender: Pid
    dest: Pid
    payload: Payload
    index: int  # global send order; doubles as the message id in traces


_index = attrgetter("index")


class AsyncSystemState(NamedTuple):
    states: tuple[LocalState, ...]
    queues: tuple[tuple[InFlight, ...], ...]  # per live destination, in send order
    crashed: Optional[Pid]
    next_index: int
    step_count: int

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def in_flight(self) -> tuple[InFlight, ...]:
        """Every deliverable message, in send order."""
        return tuple(sorted(chain.from_iterable(self.queues), key=_index))

    def live(self) -> list[Pid]:
        return [q for q in range(self.n) if q != self.crashed]

    def outputs(self) -> dict[Pid, int]:
        return {q: s.output for q, s in enumerate(self.states) if s.output is not None}


def initial_async_state(protocol: AsyncProtocol, inputs: Iterable[int]) -> AsyncSystemState:
    states = initial_configuration(protocol, inputs).states
    return AsyncSystemState(
        states=states, queues=((),) * len(states), crashed=None, next_index=0, step_count=0
    )


def step_async(
    state: AsyncSystemState, protocol: AsyncProtocol, event: FlpStep
) -> tuple[AsyncSystemState, tuple[tuple[Pid, int], ...]]:
    """Apply one scheduler event, ignoring its ``outputs``; returns the new
    state and the outputs written during the step."""
    states, queues, crashed, next_index, now = state
    pid, deliver, crash, _ = event
    n = len(states)
    if not 0 <= pid < n:
        raise ScheduleError(f"pid {pid} out of range")
    if crash:
        if crashed is not None:
            raise ScheduleError(f"second crash ({pid}); {crashed} already crashed")
        if deliver is not None:
            raise ScheduleError("a crash event delivers nothing")
        queues = queues[:pid] + ((),) + queues[pid + 1 :]
        return tuple.__new__(AsyncSystemState, (states, queues, pid, next_index, now + 1)), ()
    if pid == crashed:
        raise ScheduleError(f"crashed process {pid} cannot step")

    incoming = None
    queues = list(queues)
    if deliver is not None:
        queue = queues[pid]
        at = bisect_left(queue, deliver, key=_index)
        if at == len(queue) or queue[at].index != deliver:
            msg = next((m for m in chain(*queues) if m.index == deliver), None)
            if msg is None:
                raise ScheduleError(f"message {deliver} is not in flight")
            raise ScheduleError(f"message {deliver} is addressed to {msg.dest}, not {pid}")
        incoming = (queue[at].sender, queue[at].payload)
        queues[pid] = queue[:at] + queue[at + 1 :]

    input, internal, output = states[pid]
    try:
        internal, sends, out = protocol.step(internal, incoming)
    except Exception as exc:  # noqa: BLE001 - protocol bug surfaced as engine error
        raise EngineError(f"step() failed: {exc}", round=now, pid=pid) from exc

    for dest, payload in sends:
        if dest is not None:  # a broadcast's destinations are valid by construction
            if dest == pid:
                raise EngineError("a process never sends to itself", round=now, pid=pid)
            if not 0 <= dest < n:
                raise EngineError(f"send destination {dest} out of range", round=now, pid=pid)
        for d in range(n) if dest is None else (dest,):
            if d != pid:
                if d != crashed:  # a crashed process receives nothing
                    queues[d] += (tuple.__new__(InFlight, (pid, d, payload, next_index)),)
                next_index += 1

    local = tuple.__new__(LocalState, (input, internal, output))
    if out is not None:
        local = local.write(out)
    states = states[:pid] + (local,) + states[pid + 1 :]
    wrote = ((pid, local.output),) if output is None and local.output is not None else ()
    state = tuple.__new__(AsyncSystemState, (states, tuple(queues), crashed, next_index, now + 1))
    return state, wrote


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


class Scheduler:
    """Chooses the next event.  Only ever delivers in-flight messages
    addressed to the process it steps."""

    def next_event(self, state: AsyncSystemState) -> FlpStep:
        raise NotImplementedError


def _deliver_oldest(state: AsyncSystemState, pid: Pid) -> FlpStep:
    """Step ``pid``, delivering the oldest message addressed to it, if any."""
    queue = state.queues[pid]
    return tuple.__new__(FlpStep, (pid, queue[0].index if queue else None, False, ()))


class RoundRobinScheduler(Scheduler):
    """Cycle the live processes in ascending id order, always delivering the
    oldest message addressed to the stepped process."""

    def __init__(self, n: int):
        self._ids = cycle(range(n))

    def next_event(self, state: AsyncSystemState) -> FlpStep:
        pid = next(self._ids)
        if pid == state.crashed:  # at most one of n >= 2 crashes, so the next is live
            pid = next(self._ids)
        return _deliver_oldest(state, pid)


class SeededFairScheduler(Scheduler):
    """Random but fair: steps the live processes in seeded shuffled batches
    (every live process steps at least once every 2n events) and always
    delivers the oldest message addressed to the stepped process."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._batch: list[Pid] = []

    def next_event(self, state: AsyncSystemState) -> FlpStep:
        while True:
            if not self._batch:
                self._batch = state.live()
                self.rng.shuffle(self._batch)
            pid = self._batch.pop()
            if pid != state.crashed:
                return _deliver_oldest(state, pid)


class ScriptedScheduler(Scheduler):
    """Plays back a fixed event sequence (e.g. from a recorded trace)."""

    def __init__(self, events: Sequence[FlpStep]):
        self.events = list(events)
        self._pos = 0

    def next_event(self, state: AsyncSystemState) -> FlpStep:
        if self._pos >= len(self.events):
            raise ScheduleError("scheduler script exhausted")
        event = self.events[self._pos]
        self._pos += 1
        if not isinstance(event, FlpStep):
            raise ScheduleError(f"flp runs take FlpStep events, got {event!r}")
        return event


# ---------------------------------------------------------------------------
# Run loop with optional fairness audit
# ---------------------------------------------------------------------------


class FairnessReport(NamedTuple):
    ok: bool
    violations: list[str]


class AsyncRunResult(NamedTuple):
    trace: ExecutionTrace
    final_state: AsyncSystemState
    fairness: Optional[FairnessReport] = None


def run_async(
    inputs: Iterable[int],
    protocol: AsyncProtocol,
    scheduler: Scheduler,
    horizon: int,
    fairness_window: Optional[int] = None,
    crash: Optional[tuple[Pid, int]] = None,
) -> AsyncRunResult:
    """Drive ``horizon`` events and record the trace.  ``crash`` = (pid, step)
    makes event step + 1 crash pid, if none has; the scheduler picks the rest.

    With ``fairness_window`` set, audits the run: every live process must
    step, and every message in flight must be delivered, within that many
    events.  Every event, a crash included, advances ``step_count`` by one,
    so the messages one event sends all come due at one step,
    ``fairness_window`` steps after it.  Each is checked then and never
    again, which is exact: a queue only loses messages, so a message still
    queued at its due step was overdue, and one gone by then never can be.
    """
    if horizon < 0:
        raise AdversimError("horizon must be >= 0")
    state = initial_async_state(protocol, tuple(inputs))
    steps: list[FlpStep] = []
    violations: list[str] = []
    reported_pids: set[Pid] = set()
    last_stepped = {q: 0 for q in range(state.n)}
    due: deque[tuple[int, int, int]] = deque()  # (due step, first index, end index)

    for _ in range(horizon):
        crash_now = crash is not None and state.crashed is None and state.step_count >= crash[1]
        event = FlpStep(crash[0], crash=True) if crash_now else scheduler.next_event(state)
        sent = state.next_index
        state, wrote = step_async(state, protocol, event)
        pid, deliver, crashes, _ = event
        # a fresh record: a replayed step must not carry its recorded outputs
        steps.append(tuple.__new__(FlpStep, (pid, deliver, crashes, wrote)))
        now = state.step_count
        if not crashes:
            last_stepped[pid] = now
        if fairness_window is None:
            continue
        for q, last in last_stepped.items():
            if now - last > fairness_window and q != state.crashed and q not in reported_pids:
                violations.append(
                    f"process {q} unstepped for more than {fairness_window} steps at step {now}"
                )
                reported_pids.add(q)
        if state.next_index > sent:
            due.append((now + fairness_window, sent, state.next_index))
        while due and due[0][0] <= now:
            _, first, end = due.popleft()
            overdue: list[InFlight] = []
            for queue in state.queues:
                if queue and queue[0].index < end:
                    at = bisect_left(queue, first, key=_index)
                    overdue += queue[at : bisect_left(queue, end, at, key=_index)]
            # by send index: one event's sends share a sender, so as tuples
            # they would sort by destination
            for m in sorted(overdue, key=_index):
                violations.append(
                    f"message {m.index} to process {m.dest} undelivered after "
                    f"{fairness_window} steps"
                )

    trace = ExecutionTrace(
        model="flp",
        n=state.n,
        protocol=protocol.protocol_id,
        inputs=tuple(s.input for s in state.states),
        steps=tuple(steps),
    )
    fairness = None if fairness_window is None else FairnessReport(not violations, violations)
    return AsyncRunResult(trace=trace, final_state=state, fairness=fairness)
