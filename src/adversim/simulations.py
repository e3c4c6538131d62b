"""Model reductions realized as protocol wrappers.

Three directions, each usable on its host engine and composable:

* ``fts-over-ftr`` - a three-phase gather (phase 1: broadcast your simulated
  message; phases 2 and 3: broadcast everything you have seen so far) that
  simulates one fail-to-send round on three fail-to-receive rounds.  Every
  simulated round, at least n-1 senders' messages reach everybody, so the
  delivered pattern always matches a single legal fail-to-send fault.
* ``ftr-over-flp`` - a synchronizer: broadcast your round-r message on
  entering round r, buffer messages from the future, discard stale ones, and
  advance once n-2 current-round messages are buffered.
* ``flp-over-ftr`` - piggybacked delivery: every real message carries, for
  each process, the longest prefix of that process's send log its sender has
  seen; a process delivers any simulated message addressed to itself the
  moment it first sees it.

Wrapper messages are plain payload values (see ``core.Payload``): tuples of
(sender, payload) pairs, (round, payload) pairs and per-sender send-log
prefixes that nest the inner protocol's payloads unchanged.  They never
leave the process and never appear in a trace, so nothing serializes them.

The wrapper states, one built per process per round or event, hold only what
the wrapper or its audit reads: ``GetCoreState`` (pid, inner, seen),
``SynchronizerState`` (inner, started, buffer, log) with log entries
(senders, output), and ``PiggybackState`` (pid, inner, logs) with send-log
entries (dest, payload), each numbered by its position.  They are
plain immutable tuples that compare equal to, and hash like, the tuple of
their fields, so configurations holding them key memo tables at tuple cost.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Sequence

from .core import (
    AdversimError,
    AsyncProtocol,
    Configuration,
    EmulationLemmaViolation,
    ExecutionTrace,
    MODELS,
    Payload,
    Pid,
    ReceiveFault,
    RoundFault,
    RoundProtocol,
    RoundStep,
    UnknownProtocolError,
    ValidationReport,
    initial_configuration,
    shown_round,
    validate_trace,
)
from .sync_engine import NO_FAULT, step_fts


class ResourceLimitError(AdversimError):
    """A wrapper came to know more simulated messages than it allows."""


# ---------------------------------------------------------------------------
# fail-to-send over fail-to-receive: three-phase gather
# ---------------------------------------------------------------------------


class GetCoreState(NamedTuple):
    pid: Pid
    inner: Any
    seen: frozenset  # (sender, payload) pairs gathered this simulated round, own included


class GetCoreWrapper(RoundProtocol):
    """Runs a fail-to-send protocol on the fail-to-receive engine: real rounds
    3s-2, 3s-1 and 3s (hosts count from 1) are simulated round s, which ends
    where ``round % 3`` is 0.  Broadcasts accumulate: each phase a process
    sends everything it has gathered, own message included, which is what
    guarantees the common core of n-1 senders.  It sends the gathered set as
    it keeps it, and phase 3 sorts it to deliver in sender order.  Each
    simulated round starts with the process's own entry in its gathered
    set, so an echo of that entry changes no state.  The state keeps no
    round: 3 inner periods make one, so ``round // 3`` is the inner's shown round."""

    def __init__(self, inner: RoundProtocol, n: int):
        if n < 3:
            raise ValueError("the three-phase gather needs n >= 3")
        self.inner = inner
        self.n = n
        self.protocol_id = f"fts-over-ftr:{inner.protocol_id}"
        if inner.period is not None:
            self.period = 3 * inner.period

    def init(self, pid: Pid, input: int) -> GetCoreState:
        inner = self.inner.init(pid, input)
        return GetCoreState(pid, inner, frozenset({(pid, self.inner.message(inner, 1))}))

    def message(self, internal: GetCoreState, round: int) -> Payload:
        return internal.seen

    def transition(
        self, internal: GetCoreState, round: int, received: Mapping[Pid, Payload]
    ) -> tuple[GetCoreState, Optional[int]]:
        pid, inner, seen = internal
        merged = seen.union(*received.values())
        if round % 3:  # phases 1 and 2 only gather
            return tuple.__new__(GetCoreState, (pid, inner, merged)), None
        delivered: dict[Pid, Payload] = {}
        for sender, payload in sorted(merged):
            if sender == pid:
                continue  # a process does not deliver its own message
            if sender in delivered and delivered[sender] != payload:
                raise AdversimError(f"two payloads for sender {sender} in one simulated round")
            delivered[sender] = payload
        sim_round = round // 3
        inner, out = self.inner.transition(inner, sim_round, delivered)
        own = frozenset({(pid, self.inner.message(inner, shown_round(self.inner, sim_round + 1)))})
        return tuple.__new__(GetCoreState, (pid, inner, own)), out


def gather_delivery(script: Sequence[ReceiveFault], n: int) -> dict[Pid, tuple[Pid, ...]]:
    """The senders each process delivers after a gather run under the
    fail-to-receive fault ``script`` (three faults for one simulated round),
    from the script alone.  Process q's knowledge K_q starts as {q}, and
    each round q gains K_p for every p != q that q does not drop; q delivers
    K_q without itself.  Knowledge sets are bitmasks, unioned once per round
    from both ends, so a receiver that drops d gets all but K_d in O(1)."""
    known = [1 << q for q in range(n)]
    for fault in script:
        before, total = [], 0  # before[i]: the union of known[:i]
        for k in known:
            before.append(total)
            total |= k
        after, rest = [0] * n, 0  # after[i]: the union of known[i + 1:]
        for i in range(n - 1, 0, -1):
            rest |= known[i]
            after[i - 1] = rest
        known = [total] * n
        for q, d in fault.drops:
            known[q] = before[d] | after[d]
    everyone, full = tuple(range(n)), (1 << n) - 1
    return {q: everyone[:q] + everyone[q + 1 :] if k == full  # the common case
            else tuple(s for s in everyone if s != q and k >> s & 1) for q, k in enumerate(known)}


def classify_delivery(
    delivery: Mapping[Pid, Iterable[Pid]], n: int, script: Optional[Sequence[ReceiveFault]] = None
) -> RoundFault:
    """Express one simulated round's delivery pattern as a fail-to-send
    fault, or fail if the pattern is outside the model (two distinct senders
    missed, i.e. the common core fell below n-1), attaching ``script``, the
    round's three-phase fault script, to the error when given."""
    missing: dict[Pid, list[Pid]] = {}
    for q in range(n):
        got = {q, *delivery[q]}
        if len(got) < n:
            for s in range(n):
                if s not in got:
                    missing.setdefault(s, []).append(q)
    if not missing:
        return NO_FAULT
    if len(missing) > 1:
        raise EmulationLemmaViolation(
            f"multiple senders missed in one simulated round: {sorted(missing)}", script=script
        )
    ((sender, victims),) = missing.items()
    return RoundFault(sender, victims)


class SimulatedRound(NamedTuple):
    round: int  # the simulated round, counted from 1
    delivery: dict[Pid, tuple[Pid, ...]]
    core: tuple[Pid, ...]
    fault: RoundFault

    def record(self) -> dict:
        return {
            "sim_round": self.round,
            "core": list(self.core),
            "core_size": len(self.core),
            "fault": {"sender": self.fault.sender, "victims": sorted(self.fault.victims)},
        }


def getcore_rounds(faults: Sequence[ReceiveFault], n: int) -> list[SimulatedRound]:
    """Per-simulated-round reports of a gather run under the fault sequence
    ``faults``: each round's delivery is ``gather_delivery`` of its three
    faults, classified as one fail-to-send fault, with the script attached
    to any ``EmulationLemmaViolation``.  ``getcore_equivalent`` checks that
    the wrapped run matches the direct run under those faults."""
    reports = []
    for r in range(1, len(faults) // 3 + 1):
        script = list(faults[3 * r - 3 : 3 * r])
        delivery = gather_delivery(script, n)
        fault = classify_delivery(delivery, n, script)
        # a legal round misses at most one sender: the core is everyone else
        core = tuple(s for s in range(n) if s != fault.sender or not fault.victims)
        reports.append(SimulatedRound(round=r, delivery=delivery, core=core, fault=fault))
    return reports


def getcore_equivalent(
    base: RoundProtocol, configs: Sequence[Configuration], rounds: Sequence[SimulatedRound]
) -> bool:
    """Whether a kept-config gather run equals its base protocol (the
    wrapper's ``inner``) run directly under the classified faults, state for
    state and output for output, after every simulated round."""
    direct = initial_configuration(base, configs[0].inputs())
    for rep in rounds:
        direct = step_fts(direct, base, rep.fault)
        wrapped = [(s.internal.inner, s.output) for s in configs[3 * rep.round].states]
        if wrapped != [(s.internal, s.output) for s in direct.states]:
            return False
    return True


# ---------------------------------------------------------------------------
# fail-to-receive over the asynchronous model: synchronizer
# ---------------------------------------------------------------------------


class SynchronizerState(NamedTuple):
    inner: Any
    started: bool
    buffer: tuple  # sorted (round, sender, payload), every round >= current
    # Completed rounds, for projection back onto the synchronous model:
    # (senders delivered in ascending order, output emitted then); round r
    # is entry r - 1, so the current round is len(log) + 1.
    log: tuple = ()


class SynchronizerWrapper(AsyncProtocol):
    """Runs a fail-to-receive protocol in the asynchronous model.  A process
    broadcasts its round-r message on entering round r, buffers messages
    tagged with the current or a future round, discards stale ones, and
    advances as soon as n-2 current-round messages are buffered.  It calls
    the inner protocol with ``shown_round``, as the engine does."""

    def __init__(self, inner: RoundProtocol, n: int):
        if n < 3:
            raise ValueError("the synchronizer needs n >= 3")
        self.inner = inner
        self.n = n
        self.protocol_id = f"ftr-over-flp:{inner.protocol_id}"

    def init(self, pid: Pid, input: int) -> SynchronizerState:
        return SynchronizerState(self.inner.init(pid, input), False, ())

    def step(
        self, internal: SynchronizerState, incoming: Optional[tuple[Pid, Payload]]
    ) -> tuple[SynchronizerState, list, Optional[int]]:
        inner, started, buffer, log = internal
        round = len(log) + 1
        if incoming is not None:
            sender, (r, payload) = incoming
            if r >= round:
                entry = (r, sender, payload)
                at = bisect_left(buffer, entry)
                buffer = buffer[:at] + (entry,) + buffer[at:]
        sends = [] if started else [(None, (1, self.inner.message(inner, 1)))]
        output = None
        while True:
            # every buffered round is >= round, so this round's entries are
            # the buffer's prefix, already in (sender, payload) order
            end = bisect_left(buffer, (round + 1,))
            if end < self.n - 2:
                break
            received = {sender: payload for _, sender, payload in buffer[:end]}
            inner, out = self.inner.transition(inner, shown_round(self.inner, round), received)
            if output is None:
                output = out
            log = log + ((tuple(received), out),)
            buffer = buffer[end:]
            round += 1
            sends.append((None, (round, self.inner.message(inner, shown_round(self.inner, round)))))
        state = tuple.__new__(SynchronizerState, (inner, True, buffer, log))
        return state, sends, output


class SynchronizerProjection(NamedTuple):
    """A synchronized run re-expressed as a fail-to-receive trace over all n
    simulated processes, truncated at the last round every live process
    completed.  A crashed process stops being simulated faithfully at its
    crash, so its outputs are exempted from the replay comparison; everything
    the survivors did must replay exactly."""

    trace: ExecutionTrace
    crashed: Optional[Pid]
    min_round: int
    completed_rounds: dict[Pid, int]
    report: ValidationReport

    def record(self) -> dict:
        return {
            "crashed": self.crashed,
            "min_round": self.min_round,
            "completed_rounds": {str(q): r for q, r in self.completed_rounds.items()},
            "projection_valid": self.report.valid,
            "problems": self.report.problems,
        }


def project_synchronized_run(final_states, crashed: Optional[Pid], base: RoundProtocol, inputs) -> SynchronizerProjection:
    """Build and validate the fail-to-receive projection of a synchronized
    asynchronous run.  ``final_states`` are the per-process SynchronizerState
    values at the end of the run."""
    n = len(final_states)
    completed = {q: len(final_states[q].log) for q in range(n)}
    min_round = min(r for q, r in completed.items() if q != crashed)

    steps = []
    for r in range(1, min_round + 1):
        dropped = {}
        outputs = []
        for q in range(n):
            if completed[q] < r:
                continue  # crashed mid-run; replay continues it unchecked
            received, out = final_states[q].log[r - 1]
            missing = [s for s in range(n) if s != q and s not in received]
            if len(missing) > 1:
                raise EmulationLemmaViolation(
                    f"process {q} missed {len(missing)} senders in round {r}")
            if missing:
                dropped[q] = missing[0]
            if out is not None:
                outputs.append((q, out))
        steps.append(RoundStep(r, ReceiveFault(dropped), tuple(sorted(outputs))))

    trace = ExecutionTrace(
        model="ftr",
        n=n,
        protocol=base.protocol_id,
        inputs=tuple(inputs),
        steps=tuple(steps),
    )
    ignore = (crashed,) if crashed is not None else ()
    report = validate_trace(trace, ignore_outputs=ignore)
    return SynchronizerProjection(
        trace=trace,
        crashed=crashed,
        min_round=min_round,
        completed_rounds=completed,
        report=report,
    )


# ---------------------------------------------------------------------------
# asynchronous model over fail-to-receive: piggybacked delivery
# ---------------------------------------------------------------------------


# Guard against protocols whose traffic grows without bound: the wrapper takes
# one inner step per delivered message, so a protocol that sends two messages
# per step doubles its traffic every round.
MAX_SIMULATED_MESSAGES = 100_000


class PiggybackState(NamedTuple):
    pid: Pid
    inner: Any
    # Per process, the longest prefix of its send log seen so far, as
    # (dest or None for broadcast, payload) entries whose position is their
    # sequence number; a process's own entry is its whole log.
    logs: tuple


class PiggybackWrapper(RoundProtocol):
    """Runs an asynchronous protocol on the fail-to-receive engine.  Every
    real broadcast carries, for each sender, the longest prefix of its
    append-only send log the broadcaster has seen (a vector clock whose
    entries carry the messages themselves).  A process delivers a simulated
    message addressed to itself the first time it sees one, in ascending
    (sender, sequence) order.  Each round a process delivers everything newly
    addressed to it, or takes one spontaneous step if nothing arrived, so the
    simulated processes keep taking steps forever.  Round 1 delivers nothing,
    so its idle step is each simulated process's first step."""

    def __init__(self, inner: AsyncProtocol, n: int):
        if n < 3:
            raise ValueError("piggybacked delivery needs n >= 3")
        self.inner = inner
        self.n = n
        self.protocol_id = f"flp-over-ftr:{inner.protocol_id}"

    def init(self, pid: Pid, input: int) -> PiggybackState:
        return PiggybackState(pid, self.inner.init(pid, input), ((),) * self.n)

    def message(self, internal: PiggybackState, round: int) -> Payload:
        return internal.logs

    def transition(
        self, internal: PiggybackState, round: int, received: Mapping[Pid, Payload]
    ) -> tuple[PiggybackState, Optional[int]]:
        pid, inner, old_logs = internal
        logs = list(old_logs)
        for their_logs in received.values():
            for s, log in enumerate(their_logs):
                if len(log) > len(logs[s]):
                    logs[s] = log
        if sum(map(len, logs)) > MAX_SIMULATED_MESSAGES:
            raise ResourceLimitError(
                f"more than {MAX_SIMULATED_MESSAGES} simulated messages known"
            )

        arrived = [
            (sender, payload)
            for sender, (old, log) in enumerate(zip(old_logs, logs))
            for dest, payload in log[len(old) :]
            if dest == pid or dest is None
        ]
        outbox = []
        output = None
        # an idle round, round 1 included, still takes one simulated step
        for incoming in arrived or [None]:
            inner, sends, out = self.inner.step(inner, incoming)
            outbox += sends
            if output is None:
                output = out

        if any(dest == pid for dest, _ in outbox):
            raise AdversimError("a process never sends to itself")
        logs[pid] += tuple(outbox)
        return tuple.__new__(PiggybackState, (pid, inner, tuple(logs))), output


class LedgerEntry(NamedTuple):
    sender: Pid
    seq: int
    dest: Optional[Pid]  # None = broadcast
    sent_round: int
    deliveries: tuple[tuple[Pid, int], ...]  # (receiver, round delivered)

    def expected_receivers(self, n: int) -> tuple[Pid, ...]:
        if self.dest is None:
            return tuple(q for q in range(n) if q != self.sender)
        return (self.dest,)

    def fully_delivered(self, n: int) -> bool:
        got = {q for q, _ in self.deliveries}
        return got == set(self.expected_receivers(n))

    def max_lag(self) -> Optional[int]:
        if not self.deliveries:
            return None
        return max(r for _, r in self.deliveries) - self.sent_round

    def record(self) -> dict:
        return {
            "id": [self.sender, self.seq],
            "dest": self.dest,
            "sent_round": self.sent_round,
            "delivered": {str(q): r for q, r in self.deliveries},
            "lag": self.max_lag(),
        }


def piggyback_ledger(configs: Sequence[Configuration]) -> list[LedgerEntry]:
    """Reconstruct the simulated-message delivery ledger of a piggybacked run
    from its kept configurations, in one pass over the rounds.  Message
    (p, seq) was sent in the round p's own log first grows past seq, and
    delivered to q != p in the round q's copy of p's log first grows past
    seq, if it is broadcast or addressed to q: that is when the wrapper
    delivers it."""
    n = configs[0].n
    known = [[0] * n for _ in range(n)]  # known[q][p]: length of q's copy of p's log
    sent: list[list] = [[] for _ in range(n)]  # per sender, by seq: (dest, round, deliveries)
    for prev, config in zip(configs, configs[1:]):
        r = prev.round
        for q, state in enumerate(config.states):
            lengths = known[q]
            for p, log in enumerate(state.internal.logs):
                for seq, (dest, _payload) in enumerate(log[lengths[p] :], lengths[p]):
                    if p == q:
                        sent[p].append((dest, r, []))
                    elif dest is None or dest == q:
                        sent[p][seq][2].append((q, r))
                lengths[p] = len(log)
    return [
        LedgerEntry(p, seq, dest, r, tuple(sorted(deliveries)))
        for p in range(n)
        for seq, (dest, r, deliveries) in enumerate(sent[p])
    ]


# ---------------------------------------------------------------------------
# Stack composition
# ---------------------------------------------------------------------------

_WRAPPERS = {
    ("fts", "ftr"): GetCoreWrapper,
    ("ftr", "flp"): SynchronizerWrapper,
    ("flp", "ftr"): PiggybackWrapper,
}


def _stack_models(stack: str) -> list[str]:
    models = stack.split("-over-")
    if len(models) < 2 or any(m not in MODELS for m in models):
        raise UnknownProtocolError(f"malformed stack descriptor {stack!r}")
    return models


def build_stack(stack: str, base_id: str, n: int):
    """Compose wrappers per a stack descriptor such as ``fts-over-ftr`` or
    ``fts-over-ftr-over-flp``.  The leftmost model is the base protocol's
    native model and the rightmost is the engine the result runs on.  A
    stack starting at ``flp`` takes round-based targets through the
    synchronizer first (the only bridge from round protocols into the
    asynchronous world).  A malformed descriptor, one naming a simulation
    that does not exist, or an asynchronous base under a stack starting at
    ``fts`` or ``ftr`` is an unknown protocol."""
    from .protocols import get_protocol

    models = _stack_models(stack)
    protocol = get_protocol(base_id, n)
    if models[0] == "flp" and isinstance(protocol, RoundProtocol):
        protocol = SynchronizerWrapper(protocol, n)
    elif models[0] != "flp" and isinstance(protocol, AsyncProtocol):
        raise UnknownProtocolError(
            f"{base_id!r} is asynchronous; stack {stack!r} starts at round model {models[0]!r}"
        )
    for inner_model, outer_model in zip(models, models[1:]):
        try:
            wrap = _WRAPPERS[(inner_model, outer_model)]
        except KeyError:
            raise UnknownProtocolError(
                f"no simulation of {inner_model!r} on {outer_model!r}"
            ) from None
        protocol = wrap(protocol, n)
    protocol.protocol_id = f"{stack}:{base_id}"
    return protocol


def stack_model(stack: str) -> str:
    """The engine model a stack descriptor runs on."""
    return _stack_models(stack)[-1]


# ---------------------------------------------------------------------------
# Faithfulness audits
# ---------------------------------------------------------------------------


class StackAudit(NamedTuple):
    """A stack run's audit: its report records, verdict and one-line summary."""

    records: list
    ok: bool
    summary: str


def audit_stack(protocol, result) -> StackAudit:
    """Audit one run of a built stack by its outermost simulation: the
    gather's rounds and equivalence, the synchronizer's projection (the only
    audit of a nested stack), or the piggyback ledger's relay bound: a
    broadcast that reaches a receiver in round r reaches every receiver by
    round r + 1 if the run lasts that long, as the sender and that receiver
    both relay it then and a receiver drops one sender at most.  A gather
    core below n-1, or a synchronized round missing two senders, raises
    ``EmulationLemmaViolation``."""
    if isinstance(protocol, SynchronizerWrapper):
        final = result.final_state
        proj = project_synchronized_run(
            [s.internal for s in final.states], final.crashed, protocol.inner, result.trace.inputs
        )
        valid = proj.report.valid
        summary = f"crashed={proj.crashed} min_round={proj.min_round} projection_valid={valid}"
        return StackAudit([proj.record()], valid, summary)
    if isinstance(protocol, GetCoreWrapper):
        rounds = getcore_rounds([s.fault for s in result.trace.steps], protocol.n)
        ok = getcore_equivalent(protocol.inner, result.configs, rounds)
        min_core = min((len(r.core) for r in rounds), default=protocol.n)
        records = [r.record() for r in rounds] + [{"equivalent_direct_run": ok}]
        return StackAudit(records, ok, f"{len(rounds)} simulated rounds, min core size {min_core}")
    ledger = piggyback_ledger(result.configs)
    n, last = protocol.n, result.configs[-1].round - 1  # the run's last round
    undelivered = sum(not e.fully_delivered(n) for e in ledger)
    summary = f"{len(ledger)} simulated messages, {undelivered} not fully delivered"
    late = 0  # broadcasts past the relay bound
    for e in ledger:
        rounds = sorted(r for _, r in e.deliveries)
        if e.dest is None and rounds and rounds[0] < last:
            late += len(rounds) < n - 1 or rounds[-1] > rounds[0] + 1
    if late:
        summary += f", {late} broadcasts past the relay bound"
    return StackAudit([e.record() for e in ledger], not late, summary)
