"""Lockstep executors for the fail-to-send and fail-to-receive models.

Every round each process broadcasts one payload, then transitions on the
payloads it received.  The adversary's per-round choice is a RoundFault
(fail-to-send: one sender, a victim set) or a ReceiveFault (fail-to-receive:
per receiver, at most one dropped sender).  No process ever crashes, and
engines always run to the requested horizon: decided processes keep
participating.  ``successors`` is the one round rule: it builds every child
of a configuration from one broadcast, and ``step_fts``/``step_ftr`` are its
one-fault case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
    read_step_script,
)


def successors(
    config: Configuration,
    protocol: RoundProtocol,
    drop_maps: Iterable[Mapping[Pid, Pid]],  # each: receiver -> the one sender it misses
) -> Iterator[Configuration]:
    """Yield the child of ``config`` under each drop map, in order.

    Every process broadcasts once, then each receiver transitions on every
    other payload, in ascending sender order, except the one it drops.  A
    receiver's transition on a given inbox is computed once, when a child
    first needs it, so all children of a configuration cost at most n*n
    transitions.  Lazy: an error surfaces at the first child that meets it."""
    round = config.round
    states = config.states
    inbox = {}
    for p, state in enumerate(states):
        try:
            inbox[p] = protocol.message(state.internal, round)
        except Exception as exc:  # noqa: BLE001 - protocol bug surfaced as engine error
            raise EngineError(f"message() failed: {exc}", round=round, pid=p) from exc
    after: dict[tuple[Pid, Optional[Pid]], LocalState] = {}  # (receiver, missed) -> state
    for dropped in drop_maps:
        new_states = []
        for q, state in enumerate(states):
            miss = dropped.get(q)
            nxt = after.get((q, miss))
            if nxt is None:
                received = inbox.copy()
                del received[q]
                received.pop(miss, None)
                try:
                    internal, out = protocol.transition(state.internal, round, received)
                except Exception as exc:  # noqa: BLE001
                    raise EngineError(f"transition() failed: {exc}", round=round, pid=q) from exc
                nxt = after[q, miss] = LocalState(state.input, internal, state.output).write(out)
            new_states.append(nxt)
        yield Configuration(round=round + 1, states=tuple(new_states))


def step_fts(config: Configuration, protocol: RoundProtocol, fault: RoundFault) -> Configuration:
    """One fail-to-send round: every process receives every other payload,
    except that fault.sender's payload is withheld from fault.victims."""
    fault.validate(config.n)
    return next(successors(config, protocol, (fault.mapping,)))


def step_ftr(config: Configuration, protocol: RoundProtocol, fault: ReceiveFault) -> Configuration:
    """One fail-to-receive round: each process receives every other payload
    except the single sender (if any) dropped for it."""
    fault.validate(config.n)
    return next(successors(config, protocol, (fault.mapping,)))


# ---------------------------------------------------------------------------
# Adversary policies
# ---------------------------------------------------------------------------


class AdversaryPolicy:
    """Per-round fault chooser.  Sees only public history: the steps
    (faults and outputs) recorded so far, never internal states."""

    model: str = "fts"

    def next_fault(self, round: int, history: Sequence[TraceStep]):
        raise NotImplementedError


class NoFaultPolicy(AdversaryPolicy):
    def __init__(self, model: str = "fts"):
        self.model = model

    def next_fault(self, round, history):
        return NO_FAULT if self.model == "fts" else NO_DROPS


class SilentPolicy(AdversaryPolicy):
    """Silences one process forever: fault (p, everyone else) each round."""

    def __init__(self, p: Pid, n: int, model: str = "fts"):
        self.model = model
        self.p = p
        if model == "fts":
            self._fault = RoundFault(p, [q for q in range(n) if q != p])
        else:
            self._fault = ReceiveFault({q: p for q in range(n) if q != p})

    def next_fault(self, round, history):
        return self._fault


class ScriptedPolicy(AdversaryPolicy):
    """Plays back a fixed fault sequence; no-fault once the script runs out."""

    def __init__(self, faults: Sequence, model: str = "fts"):
        self.model = model
        self.faults = list(faults)

    def next_fault(self, round, history):
        i = len(history)
        if i < len(self.faults):
            return self.faults[i]
        return NO_FAULT if self.model == "fts" else NO_DROPS


class RandomFaultPolicy(AdversaryPolicy):
    """Seeded uniform fault draw; each round independent of history."""

    def __init__(self, n: int, rng, model: str = "fts", restricted: bool = False):
        if restricted and model != "fts":
            raise AdversimError("restricted mode applies to the fail-to-send model only")
        self.model = model
        self.n = n
        self.rng = rng
        self.restricted = restricted

    def next_fault(self, round, history):
        if self.model == "fts":
            sender = self.rng.randrange(self.n)
            others = [q for q in range(self.n) if q != sender]
            while True:
                victims = [q for q in others if self.rng.random() < 0.5]
                if not (self.restricted and len(victims) == self.n - 1):
                    return RoundFault(sender, victims)
        dropped = {}
        for q in range(self.n):
            k = self.rng.randrange(self.n)  # n choices: keep all, or drop one sender
            if k != q:
                dropped[q] = k
        return ReceiveFault(dropped)


def scripted_policy_from_file(path, model: str) -> ScriptedPolicy:
    """Read a JSONL fault script (same record schema as trace steps)."""
    return ScriptedPolicy([step.fault for step in read_step_script(path, model)], model=model)


# ---------------------------------------------------------------------------
# Round-by-round runner
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    trace: ExecutionTrace
    final_config: Configuration
    configs: Optional[tuple[Configuration, ...]] = None  # incl. initial, when kept


def run(
    config: Configuration,
    protocol: RoundProtocol,
    policy: AdversaryPolicy,
    horizon: int,
    keep_configs: bool = False,
) -> RunResult:
    """Execute ``horizon`` rounds under the policy, recording faults and the
    outputs written each round.  Never stops early: the models' executions
    are infinite, so decided processes keep participating to the horizon."""
    if horizon < 0:
        raise AdversimError("horizon must be >= 0")
    model = policy.model
    steps: list[TraceStep] = []
    configs = [config] if keep_configs else None
    current = config
    for _ in range(horizon):
        fault = policy.next_fault(current.round, steps)
        before = current.outputs()
        if model == "fts":
            if not isinstance(fault, RoundFault):
                raise AdversimError("fts policy must return RoundFault")
            nxt = step_fts(current, protocol, fault)
        else:
            if not isinstance(fault, ReceiveFault):
                raise AdversimError("ftr policy must return ReceiveFault")
            nxt = step_ftr(current, protocol, fault)
        wrote = tuple(sorted((q, v) for q, v in nxt.outputs().items() if q not in before))
        step_cls = FtsStep if model == "fts" else FtrStep
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


def receive_fault_for(fault: RoundFault) -> ReceiveFault:
    """Embed a fail-to-send fault into the fail-to-receive model: every
    victim drops the faulty sender."""
    return ReceiveFault({q: fault.sender for q in fault.victims})
