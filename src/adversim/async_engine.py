"""Executor for the asynchronous message-passing model.

Processes take atomic steps in scheduler-chosen order; a step optionally
consumes one in-flight message addressed to the stepping process, updates
state, and sends any number of messages.  At most one process may crash-stop,
after which it takes no further steps.  Fair schedulers keep every live
process stepping and deliver every message within a bounded window, which a
finite-horizon fairness check can audit on any recorded run.

Messages in flight wait in one queue per destination, in send order, so a
step only ever looks at the stepping process's own queue.

A scheduler's event is a ``core.FlpStep`` whose outputs the engine fills in.
The records built once per event (``InFlight``, ``FlpStep`` and
``AsyncSystemState``) are plain immutable tuples: each compares equal to,
and hashes like, the tuple of its fields, and a new one is made with
``_replace`` or the constructor, never by mutation.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import chain, takewhile
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
    sent_at: int  # step count when sent, for fairness ageing


_index = attrgetter("index")


class AsyncSystemState(NamedTuple):
    states: tuple[LocalState, ...]
    queues: tuple[tuple[InFlight, ...], ...]  # per destination, in send order
    crashed: Optional[Pid]
    next_index: int
    step_count: int

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def in_flight(self) -> tuple[InFlight, ...]:
        """Every message in flight, in send order."""
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
    n, pid, now = state.n, event.pid, state.step_count
    if not 0 <= pid < n:
        raise ScheduleError(f"pid {pid} out of range")
    if event.crash:
        if state.crashed is not None:
            raise ScheduleError(f"second crash ({pid}); {state.crashed} already crashed")
        if event.deliver is not None:
            raise ScheduleError("a crash event delivers nothing")
        return state._replace(crashed=pid, step_count=now + 1), ()
    if pid == state.crashed:
        raise ScheduleError(f"crashed process {pid} cannot step")

    incoming = None
    queues = list(state.queues)
    if event.deliver is not None:
        queue = queues[pid]
        at = bisect_left(queue, event.deliver, key=_index)
        if at == len(queue) or queue[at].index != event.deliver:
            msg = next((m for m in chain(*queues) if m.index == event.deliver), None)
            if msg is None:
                raise ScheduleError(f"message {event.deliver} is not in flight")
            raise ScheduleError(f"message {event.deliver} is addressed to {msg.dest}, not {pid}")
        incoming = (queue[at].sender, queue[at].payload)
        queues[pid] = queue[:at] + queue[at + 1 :]

    local = state.states[pid]
    try:
        internal, sends, out = protocol.step(local.internal, incoming)
    except Exception as exc:  # noqa: BLE001 - protocol bug surfaced as engine error
        raise EngineError(f"step() failed: {exc}", round=now, pid=pid) from exc

    next_index = state.next_index
    for dest, payload in sends:
        for d in [q for q in range(n) if q != pid] if dest is None else [dest]:
            if d == pid:
                raise EngineError("a process never sends to itself", round=now, pid=pid)
            if not 0 <= d < n:
                raise EngineError(f"send destination {d} out of range", round=now, pid=pid)
            queues[d] += (InFlight(pid, d, payload, next_index, now),)
            next_index += 1

    new_local = LocalState(local.input, internal, local.output).write(out)
    states = state.states[:pid] + (new_local,) + state.states[pid + 1 :]
    wrote = ()
    if local.output is None and new_local.output is not None:
        wrote = ((pid, new_local.output),)
    return AsyncSystemState(states, tuple(queues), state.crashed, next_index, now + 1), wrote


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


class Scheduler:
    """Chooses the next event.  Only ever delivers in-flight messages
    addressed to the process it steps."""

    def next_event(self, state: AsyncSystemState) -> FlpStep:
        raise NotImplementedError


def _oldest_addressed(state: AsyncSystemState, pid: Pid) -> Optional[int]:
    queue = state.queues[pid]
    return queue[0].index if queue else None


class RoundRobinScheduler(Scheduler):
    """Cycle the live processes in ascending id order, always delivering the
    oldest message addressed to the stepped process."""

    def __init__(self, n: int, crash: Optional[tuple[Pid, int]] = None):
        self.n = n
        self.crash = crash
        self._pos = 0

    def next_event(self, state: AsyncSystemState) -> FlpStep:
        if self.crash is not None and state.crashed is None and state.step_count >= self.crash[1]:
            return FlpStep(self.crash[0], crash=True)
        for _ in range(self.n):
            pid = self._pos % self.n
            self._pos += 1
            if pid != state.crashed:
                return FlpStep(pid, _oldest_addressed(state, pid))
        raise ScheduleError("no live process to step")


class SeededFairScheduler(Scheduler):
    """Random but fair: steps the live processes in seeded shuffled batches
    (every live process steps at least once every 2n events) and always
    delivers the oldest message addressed to the stepped process."""

    def __init__(self, n: int, seed: int, crash: Optional[tuple[Pid, int]] = None):
        self.n = n
        self.rng = random.Random(seed)
        self.crash = crash
        self._batch: list[Pid] = []

    def next_event(self, state: AsyncSystemState) -> FlpStep:
        if self.crash is not None and state.crashed is None and state.step_count >= self.crash[1]:
            return FlpStep(self.crash[0], crash=True)
        while True:
            if not self._batch:
                self._batch = state.live()
                self.rng.shuffle(self._batch)
            pid = self._batch.pop()
            if pid != state.crashed:
                return FlpStep(pid, _oldest_addressed(state, pid))


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
) -> AsyncRunResult:
    """Drive ``horizon`` scheduler events and record the trace.

    With ``fairness_window`` set, audits the run: every live process must
    step, and every message addressed to a live process must be delivered,
    within that many events.  (Messages addressed to a crashed process can
    never be delivered and are exempt.)
    """
    if horizon < 0:
        raise AdversimError("horizon must be >= 0")
    state = initial_async_state(protocol, tuple(inputs))
    steps: list[FlpStep] = []
    violations: list[str] = []
    reported_msgs: set[int] = set()
    reported_pids: set[Pid] = set()
    last_stepped = {q: 0 for q in range(state.n)}

    for _ in range(horizon):
        event = scheduler.next_event(state)
        state, wrote = step_async(state, protocol, event)
        # a fresh record: a replayed step must not carry its recorded outputs
        steps.append(FlpStep(event.pid, event.deliver, event.crash, wrote))
        if not event.crash:
            last_stepped[event.pid] = state.step_count
        if fairness_window is not None:
            now = state.step_count
            for q in state.live():
                if now - last_stepped[q] > fairness_window and q not in reported_pids:
                    violations.append(
                        f"process {q} unstepped for more than {fairness_window} steps at step {now}"
                    )
                    reported_pids.add(q)
            # sent_at rises with the index, so the overdue messages of each
            # queue form a prefix of it
            cutoff = now - fairness_window
            overdue = (
                m
                for q in state.live()
                for m in takewhile(lambda m: m.sent_at < cutoff, state.queues[q])
                if m.index not in reported_msgs
            )
            for m in sorted(overdue, key=_index):
                violations.append(
                    f"message {m.index} to process {m.dest} undelivered after "
                    f"{fairness_window} steps"
                )
                reported_msgs.add(m.index)

    trace = ExecutionTrace(
        model="flp",
        n=state.n,
        protocol=protocol.protocol_id,
        inputs=tuple(s.input for s in state.states),
        steps=tuple(steps),
    )
    fairness = None
    if fairness_window is not None:
        fairness = FairnessReport(ok=not violations, violations=violations)
    return AsyncRunResult(trace=trace, final_state=state, fairness=fairness)
