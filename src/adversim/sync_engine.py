"""Lockstep executors for the fail-to-send and fail-to-receive models.

Every round each process broadcasts one payload, then transitions on the
payloads it received.  The adversary's per-round choice is a RoundFault
(fail-to-send: one sender, a victim set) or a ReceiveFault (fail-to-receive:
per receiver, at most one dropped sender).  An adversary is the sequence of
these faults, fixed before the run and blind to it: ``run`` takes any
iterable of them, one per round, and once it runs out every later round
drops nothing.  No process ever crashes, and engines always run to the
requested horizon: decided processes keep participating.  ``successors`` is
the one round rule: it builds every child of a configuration from one
broadcast, and ``step_fts``/``step_ftr`` are its one-fault case.  All
three take an optional ExpansionTable, which keeps each configuration's
broadcast and transitions for a whole search.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional

from .core import (
    AdversimError,
    Configuration,
    EngineError,
    ExecutionTrace,
    FtrStep,
    FtsStep,
    LocalState,
    NO_DROPS,
    NO_FAULT,
    Pid,
    ReceiveFault,
    RoundFault,
    RoundProtocol,
    TraceStep,
)


# Per configuration: its broadcast inbox (sender -> payload), and the state
# each (receiver, missed sender) transition reached, as far as computed.
ExpansionTable = dict[
    Configuration, tuple[dict[Pid, Any], dict[tuple[Pid, Optional[Pid]], LocalState]]
]


def successors(
    config: Configuration,
    protocol: RoundProtocol,
    drop_maps: Iterable[Mapping[Pid, Pid]],  # each: receiver -> the one sender it misses
    table: Optional[ExpansionTable] = None,
) -> Iterator[Configuration]:
    """Yield the child of ``config`` under each drop map, in order.

    Every process broadcasts once, then each receiver transitions on every
    other payload, in ascending sender order, except the one it drops.  A
    receiver's transition on a given inbox is computed once, when a child
    first needs it, so all children of a configuration cost at most n*n
    transitions.  Lazy: an error surfaces at the first child that meets it.

    The next state is built once per (receiver, missed sender), as one
    tuple.  ``LocalState.write`` runs on it only when the protocol returned
    an output other than ``None``, so the register stays write-once: the
    first output sticks, a later one is ignored, and an invalid one raises
    unless an output is already written.

    With a ``table``, the broadcast and transitions are kept under the
    configuration (round included) and reused by every later call with the
    same table, so a search pays them once per distinct configuration.  A
    table must serve one protocol only; since protocols are pure and a
    failing ``message()`` or ``transition()`` stores nothing, every call
    yields and raises exactly what it would without the table."""
    round = config.round
    states = config.states
    entry = None if table is None else table.get(config)
    if entry is None:
        inbox = {}
        for p, state in enumerate(states):
            try:
                inbox[p] = protocol.message(state.internal, round)
            except Exception as exc:  # noqa: BLE001 - protocol bug surfaced as engine error
                raise EngineError(f"message() failed: {exc}", round=round, pid=p) from exc
        after: dict[tuple[Pid, Optional[Pid]], LocalState] = {}  # (receiver, missed) -> state
        if table is not None:
            table[config] = (inbox, after)
    else:
        inbox, after = entry
    transition = protocol.transition
    computed = after.get
    new = tuple.__new__  # builds a LocalState or Configuration from a field tuple, in C
    for dropped in drop_maps:
        new_states = []
        for q, state in enumerate(states):
            miss = dropped.get(q)
            nxt = computed((q, miss))
            if nxt is None:
                received = inbox.copy()
                del received[q]
                received.pop(miss, None)
                try:
                    internal, out = transition(state.internal, round, received)
                except Exception as exc:  # noqa: BLE001
                    raise EngineError(f"transition() failed: {exc}", round=round, pid=q) from exc
                nxt = new(LocalState, (state.input, internal, state.output))
                if out is not None:
                    nxt = nxt.write(out)
                after[q, miss] = nxt
            new_states.append(nxt)
        yield new(Configuration, (round + 1, tuple(new_states)))


def step_fts(
    config: Configuration,
    protocol: RoundProtocol,
    fault: RoundFault,
    table: Optional[ExpansionTable] = None,
) -> Configuration:
    """One fail-to-send round: every process receives every other payload,
    except that fault.sender's payload is withheld from fault.victims."""
    fault.validate(config.n)
    return next(successors(config, protocol, (fault.mapping,), table))


def step_ftr(
    config: Configuration,
    protocol: RoundProtocol,
    fault: ReceiveFault,
    table: Optional[ExpansionTable] = None,
) -> Configuration:
    """One fail-to-receive round: each process receives every other payload
    except the single sender (if any) dropped for it."""
    fault.validate(config.n)
    return next(successors(config, protocol, (fault.mapping,), table))


# ---------------------------------------------------------------------------
# Adversaries: fault sequences
# ---------------------------------------------------------------------------


def silence(p: Pid, n: int, model: str = "fts"):
    """The fault that silences p completely: every other process misses p's
    payload (fts: (p, everyone else); ftr: each other receiver drops p)."""
    if model == "fts":
        return RoundFault(p, range(n))
    return ReceiveFault({q: p for q in range(n) if q != p})


def random_faults(n: int, rng, model: str, restricted: bool) -> Iterator:
    """Endless seeded uniform fault draws, each round independent of the
    others.  fts: a uniform sender, then each other process a victim with
    probability 1/2; ``restricted`` redraws the victims (not the sender)
    while they would silence the sender completely.  ftr: each receiver
    keeps all payloads or drops one sender, n choices uniformly."""
    if restricted and model != "fts":
        raise AdversimError("restricted mode applies to the fail-to-send model only")

    def draw_fts():
        sender = rng.randrange(n)
        others = [q for q in range(n) if q != sender]
        while True:
            victims = [q for q in others if rng.random() < 0.5]
            if not (restricted and len(victims) == n - 1):
                return RoundFault(sender, victims)

    def draw_ftr():
        dropped = {}
        for q in range(n):
            k = rng.randrange(n)  # n choices: keep all, or drop one sender
            if k != q:
                dropped[q] = k
        return ReceiveFault(dropped)

    return iter(draw_fts if model == "fts" else draw_ftr, None)  # a draw is never None


# ---------------------------------------------------------------------------
# Round-by-round runner
# ---------------------------------------------------------------------------


class RunResult(NamedTuple):
    trace: ExecutionTrace
    final_config: Configuration
    configs: Optional[tuple[Configuration, ...]] = None  # incl. initial, when kept


def run(
    config: Configuration,
    protocol: RoundProtocol,
    model: str,
    faults: Iterable,
    horizon: int,
    keep_configs: bool = False,
) -> RunResult:
    """Execute ``horizon`` rounds of ``model``, one fault per round taken from
    ``faults`` and no fault once it runs out, recording each fault and the
    outputs written that round.  Never stops early: the models' executions
    are infinite, so decided processes keep participating to the horizon."""
    if horizon < 0:
        raise AdversimError("horizon must be >= 0")
    if model == "fts":
        kind, step, step_cls, pad = RoundFault, step_fts, FtsStep, NO_FAULT
    elif model == "ftr":
        kind, step, step_cls, pad = ReceiveFault, step_ftr, FtrStep, NO_DROPS
    else:
        raise AdversimError(f"unknown synchronous model {model!r}")
    steps: list[TraceStep] = []
    configs = [config] if keep_configs else None
    current = config
    for fault in itertools.islice(itertools.chain(faults, itertools.repeat(pad)), horizon):
        if not isinstance(fault, kind):
            raise AdversimError(f"{model} runs take {kind.__name__} faults, got {fault!r}")
        before = current.outputs()
        nxt = step(current, protocol, fault)
        wrote = tuple(sorted((q, v) for q, v in nxt.outputs().items() if q not in before))
        steps.append(step_cls(round=current.round, fault=fault, outputs=wrote))
        current = nxt
        if configs is not None:
            configs.append(current)
    trace = ExecutionTrace(
        model=model,
        n=config.n,
        protocol=protocol.protocol_id,
        inputs=config.inputs(),
        steps=tuple(steps),
    )
    return RunResult(trace=trace, final_config=current, configs=tuple(configs) if configs else None)


# ---------------------------------------------------------------------------
# Canonical fault enumeration
# ---------------------------------------------------------------------------


def enumerate_faults(model: str, n: int, restricted: bool = False) -> list:
    """All canonical per-round faults for a model, in a fixed order.

    fts: every (sender, victims) with victims a subset of the other
    processes; ``restricted`` excludes full-silence faults (victim sets of
    size n-1, i.e. more than n-2 messages removed).  ftr: every per-receiver
    drop map (each receiver independently keeps all or drops one sender).
    """
    if n < 2:
        raise AdversimError("need n >= 2")
    if model == "fts":
        faults = []
        for sender in range(n):
            others = [q for q in range(n) if q != sender]
            for mask in range(2 ** len(others)):
                victims = [q for i, q in enumerate(others) if mask >> i & 1]
                if restricted and len(victims) == n - 1:
                    continue
                faults.append(RoundFault(sender, victims))
        return faults
    if model == "ftr":
        if restricted:
            raise AdversimError("restricted mode applies to the fail-to-send model only")
        per_receiver = []
        for q in range(n):
            per_receiver.append([None] + [s for s in range(n) if s != q])
        faults = []
        for combo in itertools.product(*per_receiver):
            dropped = {q: s for q, s in enumerate(combo) if s is not None}
            faults.append(ReceiveFault(dropped))
        return faults
    raise AdversimError(f"unknown synchronous model {model!r}")
