"""Lockstep executors for the fail-to-send and fail-to-receive models.

Every round each process broadcasts one payload, then transitions on the
payloads it received.  The adversary's per-round choice is a RoundFault
(fail-to-send: one sender, a victim set) or a ReceiveFault (fail-to-receive:
per receiver, at most one dropped sender).  An adversary is the sequence of
these faults, fixed before the run and blind to it: ``run`` takes any
iterable of them, one per round, and once it runs out every later round
drops nothing.  No process ever crashes, and engines always run to the
requested horizon: decided processes keep participating.  ``_child`` is
the one round rule: one transition per (receiver, missed sender), outputs
written once, errors raised lazily.  Every fts fault is an ftr fault (a
drop map), so ``step_fts``, also bound as ``step_ftr``, builds one child
under either model, and ``distinct_children`` each distinct child once;
``_model`` is the one check of a model name.  Both take an optional
ExpansionTable, which keeps, as long as a search or an attack's chain holds
it, each configuration's broadcast, and each transition keyed on what it
reads: the shown round (``core.shown_round``, once per expansion), the
broadcast, the receiver's state and the sender it misses.  That is exact.
Protocols are pure and payloads that compare equal are interchangeable, a
table lives for one call with one protocol, and a failing ``message()`` or
``transition()`` stores nothing; so a step with a table builds the same
child, or raises the same error, as one without.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional

from .core import (
    AdversimError,
    Configuration,
    EngineError,
    ExecutionTrace,
    LocalState,
    NO_DROPS,
    NO_FAULT,
    Pid,
    ReceiveFault,
    RoundFault,
    RoundProtocol,
    RoundStep,
    shown_round,
)


# Per configuration: its shown round, its broadcast inbox (sender ->
# payload) and, per receiver, the states its transitions reached so far,
# keyed by the sender it missed (None: no one).  A transition reads only
# the shown round, the broadcast, the receiver's state and the sender it
# misses, so a receiver's dict is shared under (shown round, broadcast,
# receiver, state).  A configuration is a pair, so the keys never meet.
ExpansionTable = dict[
    Configuration | tuple[int, tuple, Pid, LocalState],
    tuple[int, dict[Pid, Any], list[dict]] | dict[Optional[Pid], LocalState],
]


def _expansion(config: Configuration, protocol: RoundProtocol, table) -> tuple[int, dict, list]:
    """The round ``protocol`` is shown at ``config``, its broadcast inbox
    (sender -> payload) and, per receiver, its transitions computed so far
    (missed sender -> next state): from ``table`` (one protocol's), or
    computed and stored there, or fresh dicts when there is no table."""
    entry = None if table is None else table.get(config)
    if entry is not None:
        return entry
    round, states = config
    shown = shown_round(protocol, round)
    inbox = {}
    for p, state in enumerate(states):
        try:
            inbox[p] = protocol.message(state.internal, shown)
        except Exception as exc:  # noqa: BLE001 - protocol bug surfaced as engine error
            raise EngineError(f"message() failed: {exc}", round=round, pid=p) from exc
    if table is None:
        return shown, inbox, [{} for _ in states]
    broadcast = tuple(inbox.values())
    afters = [table.setdefault((shown, broadcast, q, state), {})
              for q, state in enumerate(states)]
    entry = table[config] = shown, inbox, afters
    return entry


def _transition(config, protocol, shown, inbox, after, q: Pid, miss: Optional[Pid]) -> LocalState:
    """Receiver ``q``'s next state at round ``shown`` when it misses ``miss``
    (``None``: no one), stored in ``after``; a failure stores nothing."""
    state = config.states[q]
    received = inbox.copy()
    del received[q]
    received.pop(miss, None)
    try:
        internal, out = protocol.transition(state.internal, shown, received)
    except Exception as exc:  # noqa: BLE001 - protocol bug surfaced as engine error
        raise EngineError(f"transition() failed: {exc}", round=config.round, pid=q) from exc
    nxt = tuple.__new__(LocalState, (state.input, internal, state.output))
    if out is not None:
        nxt = nxt.write(out)
    after[miss] = nxt
    return nxt


def _child(config, protocol, shown, inbox, afters, dropped: Mapping[Pid, Pid]) -> Configuration:
    """The child of ``config`` under one drop map (receiver -> the one sender
    it misses): each receiver transitions on every other payload, in
    ascending sender order, except the one it drops.  A transition is
    computed once per key of its dict, when a child first needs it, so an
    error surfaces at the first child that meets it.  Its next state is one
    tuple; ``LocalState.write`` runs on it only for an output other than
    ``None``, so the register stays write-once: the first output sticks, a
    later one is ignored, an invalid one raises if none is."""
    states = []
    for q, after in enumerate(afters):
        miss = dropped.get(q)
        states.append(after.get(miss) or _transition(config, protocol, shown, inbox, after, q, miss))
    return tuple.__new__(Configuration, (config.round + 1, tuple(states)))


def _model(model: str, restricted: bool = False) -> tuple[type, Any]:
    """``model``'s fault type and its fault that drops nothing; the one check
    of a model name, and of ``restricted``, which only fts has."""
    if model == "fts":
        return RoundFault, NO_FAULT
    if model != "ftr":
        raise AdversimError(f"unknown synchronous model {model!r}")
    if restricted:
        raise AdversimError("restricted mode applies to the fail-to-send model only")
    return ReceiveFault, NO_DROPS


def distinct_children(
    config: Configuration, protocol: RoundProtocol, model: str, restricted: bool = False,
    table: Optional[ExpansionTable] = None,
) -> Iterator[tuple[Any, Configuration]]:
    """Yield ``(fault, child)`` once for each distinct child of ``config``,
    at the first fault that builds it in canonical order.  fts: senders
    ascending; per sender, victim sets counted in binary from the empty
    set, the lowest other pid the fastest digit, without full silence if
    ``restricted``.  ftr: drop maps as an odometer over receivers, n-1 the
    fastest, each keeping all first, then dropping each sender ascending.
    A receiver's option is skipped, with every combination behind it, when
    its next state equals one under an earlier option; under fts one set
    drops children two senders share.  Lazy, like ``_child``, and with
    ``table`` its transitions are read from and kept in it, as a step's are."""
    _model(model, restricted)
    shown, inbox, afters = _expansion(config, protocol, table)
    n, round = config.n, config.round
    full = _child(config, protocol, shown, inbox, afters, {})  # every fault order starts with it
    states, drops = list(full.states), [None] * n  # per receiver: its state and miss

    def walk(digits):  # digits: (receiver, its misses in canonical order), slowest first
        if not digits:
            yield tuple.__new__(Configuration, (round + 1, tuple(states)))
            return
        (q, misses), rest, options = digits[0], digits[1:], []
        after = afters[q]
        for miss in misses:
            nxt = after.get(miss) or _transition(config, protocol, shown, inbox, after, q, miss)
            if nxt not in options:
                options.append(nxt)
                states[q], drops[q] = nxt, miss
                yield from walk(rest)

    if model == "ftr":
        for child in walk([(q, [None, *(s for s in range(n) if s != q)]) for q in range(n)]):
            yield ReceiveFault({q: s for q, s in enumerate(drops) if s is not None}), child
        return
    seen = set()
    for sender in range(n):
        states[sender], drops[sender] = full.states[sender], None
        for child in walk([(q, (None, sender)) for q in reversed(range(n)) if q != sender]):
            victims = [q for q, miss in enumerate(drops) if miss is not None]
            if child not in seen and not (restricted and len(victims) == n - 1):
                seen.add(child)
                yield RoundFault(sender, victims), child


def step_fts(config: Configuration, protocol: RoundProtocol, fault: RoundFault | ReceiveFault,
             table: Optional[ExpansionTable] = None) -> Configuration:
    """One round under ``fault``, a RoundFault or a ReceiveFault: each
    receiver gets every other payload except the one sender the fault drops
    for it (fts: fault.sender's payload is withheld from fault.victims)."""
    fault.validate(config.n)
    return _child(config, protocol, *_expansion(config, protocol, table), fault.mapping)


step_ftr = step_fts


# ---------------------------------------------------------------------------
# Adversaries: fault sequences
# ---------------------------------------------------------------------------


def silence(p: Pid, n: int, model: str = "fts"):
    """The fault that silences p completely: every other process misses p's
    payload (fts: (p, everyone else); ftr: each other receiver drops p)."""
    _model(model)
    if model == "fts":
        return RoundFault(p, range(n))
    return ReceiveFault({q: p for q in range(n) if q != p})


def random_faults(n: int, rng, model: str, restricted: bool) -> Iterator:
    """Endless seeded uniform fault draws, each round independent of the
    others.  fts: a uniform sender, then each other process a victim with
    probability 1/2; ``restricted`` redraws the victims (not the sender)
    while they would silence the sender completely.  ftr: each receiver
    keeps all payloads or drops one sender, n choices uniformly."""
    _model(model, restricted)

    def draw_fts():
        sender = rng.randrange(n)
        while True:
            victims = [q for q in range(n) if q != sender and rng.random() < 0.5]
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
    kind, pad = _model(model)
    steps: list[RoundStep] = []
    configs = [config] if keep_configs else None
    current = config
    for fault in itertools.islice(itertools.chain(faults, itertools.repeat(pad)), horizon):
        if not isinstance(fault, kind):
            raise AdversimError(f"{model} runs take {kind.__name__} faults, got {fault!r}")
        before = current.outputs()
        nxt = step_fts(current, protocol, fault)
        wrote = tuple(sorted((q, v) for q, v in nxt.outputs().items() if q not in before))
        steps.append(RoundStep(round=current.round, fault=fault, outputs=wrote))
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
