"""Constructive adversary against pseudo-consensus targets.

Given a protocol that always satisfies agreement and validity and that
terminates in failure-free and single-silenced executions, this module
synthesizes an arbitrarily long fail-to-send execution in which no process
ever writes an output.

The machinery: two decision oracles (the failure-free decision and the
p-silent decision from a configuration), a dependence test (the two oracles
disagree), a flip scan over chains of adjacent configurations, and an attack
loop that keeps every reached configuration dependent.  Each extension round
either silences the pivot process completely or walks the progressive
delivery chain of its payload until the dependence flips hands; the chain's
entries are ``step_fts`` children sharing one expansion table.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional

from .core import (
    AdversimError,
    Configuration,
    ExecutionTrace,
    OracleCapExceeded,
    Pid,
    RoundFault,
    RoundProtocol,
    RoundStep,
    config_key,
    initial_configuration,
)
from .sync_engine import NO_FAULT, ExpansionTable, run, silence, step_fts


class AgreementViolation(AdversimError):
    """A probed continuation, run from ``start`` under ``fault`` every round,
    produced two different outputs.  ``trace`` runs from ``start``, or from
    round 1 when the attack raises it."""

    def __init__(self, outputs: dict[Pid, int], trace: ExecutionTrace, fault: RoundFault,
                 start: Configuration):
        super().__init__(f"agreement violation in probed continuation: {outputs}")
        self.outputs = outputs
        self.trace = trace
        self.fault = fault
        self.start = start


class OutOfModelProbe(AdversimError):
    """Under the restricted model, a probe that silences a process
    completely disagrees.  The model forbids that fault, so this shows that
    the oracle's precondition fails, not that the target violates agreement."""

    def __init__(self, fault: RoundFault, trace: ExecutionTrace):
        super().__init__(
            f"a probe under fault (sender {fault.sender}, victims {sorted(fault.victims)}), "
            "which the restricted model forbids, disagrees"
        )
        self.fault = fault
        self.trace = trace


class NoFlipInChain(AdversimError):
    """Chain scan found no adjacent failure-free flip (precondition broken).
    The attack raises it with ``violation`` set to the validity
    counterexample that proves it, a ``checking.CheckViolation``."""

    violation = None


class ChainExhausted(AdversimError):
    """Restricted adversary ran out of chain: with full-silence faults
    forbidden, the progressive delivery chain is one configuration short and
    may present no failure-free flip."""

    def __init__(self):
        super().__init__("chain exhausted")


class InvariantViolation(AdversimError):
    """An identity the construction guarantees failed; the target is not a
    deterministic pseudo-consensus machine (or there is an engine bug)."""


class DecisionOracleResult(NamedTuple):
    decision: int
    rounds_used: int


class DependenceWitness(NamedTuple):
    """Proof that a configuration's decision hangs on one process: the
    failure-free continuation and the continuation silencing that process
    decide differently."""

    config: Configuration
    process: Pid
    ff_decision: int
    silent_decision: int


def default_cap(n: int) -> int:
    """Generous round budget for decision oracles.  The bundled target
    decides benign continuations within a handful of rounds; anything that
    needs more than 10n rounds is treated as non-live rather than hung."""
    return 10 * n


# Probe results recorded along whole probe paths, one table per (protocol,
# fault): ``core.config_key`` -> (decision, rounds the probe still needs
# from it).  A memo belongs to one attack; nothing outlives it.
OracleMemo = dict[tuple[RoundProtocol, RoundFault], dict[tuple, tuple[int, int]]]


def _probe(
    config: Configuration,
    protocol: RoundProtocol,
    fault: RoundFault,
    cap: int,
    kind: str,
    memo: Optional[OracleMemo] = None,
) -> DecisionOracleResult:
    """Run the same fault every round until all processes have output.

    With a memo, every configuration the probe passes through is recorded
    with the decision and the rounds still needed from it, since the rest of
    this probe is its own probe.  A later probe that reaches a recorded
    configuration after k rounds needs k + rounds_left in all and exceeds
    the cap exactly when stepping on would.  Only probes that end in
    agreement are recorded, so a disagreeing path is always stepped in full.
    Entries are keyed on ``config_key``, so a probe also stops where one
    passed a period or more earlier."""
    if cap < 1:
        raise AdversimError("oracle cap must be >= 1")
    table = None if memo is None else memo.setdefault((protocol, fault), {})
    path: list[tuple] = []
    current = config
    hit = None
    while not current.all_decided():
        key = config_key(current, protocol)
        if table is not None and (hit := table.get(key)) is not None:
            break
        if len(path) >= cap:
            raise OracleCapExceeded(kind, cap)
        path.append(key)
        current = step_fts(current, protocol, fault)
    if hit is not None:
        decision, left = hit
        rounds = len(path) + left
        if rounds > cap:
            raise OracleCapExceeded(kind, cap)
    else:
        outputs = current.outputs()
        values = set(outputs.values())
        if len(values) != 1:
            probe = run(config, protocol, "fts", itertools.repeat(fault), len(path))
            raise AgreementViolation(outputs, probe.trace, fault, config)
        decision, rounds = values.pop(), len(path)
    if table is not None:
        for i, c in enumerate(path):
            table[c] = (decision, rounds - i)
    return DecisionOracleResult(decision=decision, rounds_used=rounds)


def failure_free_decision(
    config: Configuration, protocol: RoundProtocol, cap: int, *, memo: Optional[OracleMemo] = None
) -> DecisionOracleResult:
    """Decision of the continuation with no faults at all."""
    return _probe(config, protocol, NO_FAULT, cap, "failure-free", memo)


def silent_decision(
    config: Configuration,
    p: Pid,
    protocol: RoundProtocol,
    cap: int,
    *,
    memo: Optional[OracleMemo] = None,
) -> DecisionOracleResult:
    """Decision of the continuation in which p is silenced every round
    (fault (p, everyone else)); p still hears the others and must also
    output for the probe to complete."""
    return _probe(config, protocol, silence(p, config.n), cap, f"{p}-silent", memo)


def _witness(config: Configuration, p: Pid, ff: int, sil: int) -> Optional[DependenceWitness]:
    """The witness two oracle decisions at ``config`` make, if they differ;
    the sole constructor of witnesses.  A configuration with an output gets
    none: a probe returns the value every process output, written ones
    included, so both oracles agree there."""
    if ff == sil:
        return None
    return DependenceWitness(config=config, process=p, ff_decision=ff, silent_decision=sil)


def find_dependent_in_chain(
    configs: Iterable[Configuration],
    differing: Iterable[Pid],
    protocol: RoundProtocol,
    cap: int,
    *,
    memo: Optional[OracleMemo] = None,
    first_ff: Optional[int] = None,
) -> tuple[int, DependenceWitness]:
    """Locate a dependent configuration on a chain c_0, c_1, ... whose
    failure-free decisions flip somewhere; c_{i-1} and c_i differ exactly in
    the local state of the i-th entry of ``differing``.

    Draws and probes one configuration at a time and stops at the first
    adjacent pair (c_{j-1}, c_j) with differing failure-free decisions, so a
    lazy chain is built no further than c_j.  A caller that has already
    probed c_0 passes its failure-free decision as ``first_ff``.  If the
    silent decision of the differing process at c_j disagrees with c_j's
    failure-free decision, c_j is dependent.  Otherwise c_{j-1} is:
    silencing the differing process erases the only state distinction
    between the two, so their silent decisions coincide, and that value
    disagrees with c_{j-1}'s failure-free decision.  The returned witness
    holds the two oracle decisions probed at c_k either way.
    """
    configs = iter(configs)
    prev = next(configs)
    prev_ff = first_ff
    if prev_ff is None:
        prev_ff = failure_free_decision(prev, protocol, cap, memo=memo).decision
    # differing first, so zip draws no configuration past the chain's end
    for j, (p, config) in enumerate(zip(differing, configs), 1):
        ff = failure_free_decision(config, protocol, cap, memo=memo).decision
        if ff != prev_ff:
            break
        prev = config
    else:
        raise NoFlipInChain("no flip in chain")
    sil = silent_decision(config, p, protocol, cap, memo=memo).decision
    if sil != ff:
        return j, _witness(config, p, ff, sil)
    sil = silent_decision(prev, p, protocol, cap, memo=memo).decision
    witness = _witness(prev, p, prev_ff, sil)
    if witness is None:
        raise InvariantViolation(f"chain entry {j - 1} failed re-verification as {p}-dependent")
    return j - 1, witness


def find_initial_dependent(
    protocol: RoundProtocol, n: int, cap: Optional[int] = None, *, memo: Optional[OracleMemo] = None
) -> DependenceWitness:
    """Dependent initial configuration, found on the monotone input chain.

    The chain runs from the all-0 input vector to the all-1 vector, flipping
    one process's input per step in ascending id order; validity pins the
    failure-free decisions of the endpoints to 0 and 1, so the chain scan
    always succeeds on a live target.
    """
    if n < 2:
        raise AdversimError("need n >= 2")
    cap = default_cap(n) if cap is None else cap
    configs = (
        initial_configuration(protocol, tuple(1 if j < i else 0 for j in range(n)))
        for i in range(n + 1)
    )
    return find_dependent_in_chain(configs, range(n), protocol, cap, memo=memo)[1]


class AttackRound(NamedTuple):
    """One round of the attack: the fault it stepped and the witness of the
    configuration that fault reached.  Round 0 holds the initial witness,
    reached by no fault."""

    fault: RoundFault
    witness: DependenceWitness

    @property
    def round(self) -> int:
        return self.witness.config.round - 1


def extend_dependent(
    witness: DependenceWitness,
    protocol: RoundProtocol,
    cap: Optional[int] = None,
    restricted: bool = False,
    *,
    memo: Optional[OracleMemo] = None,
) -> AttackRound:
    """One attack round: from a p-dependent configuration, pick a fault whose
    successor is again dependent for some process.

    Let b be the p-silent decision from here.  Silencing p completely gives
    c_1; if its failure-free decision is not b, c_1 is itself p-dependent
    (its p-silent continuation is a suffix of this one's, so it still
    decides b).  Otherwise walk the chain c_1..c_n in which p's payload is
    delivered to one more process each time, in ascending id order: the
    failure-free decisions at the ends are b and (not b), and consecutive
    entries differ only in whether one process heard p, so the chain scan
    lands on a dependent successor and the generating fault is returned.
    The whole chain comes from one fan-out round, stepped lazily, so no
    entry past the first flip is built or probed, and c_1 is probed once:
    the scan takes its failure-free decision from the full-silence test.

    With ``restricted`` set, full-silence faults are forbidden: the chain
    starts at c_2 and is one configuration short, so the scan may find no
    flip; that outcome is reported as ChainExhausted.
    """
    config, p = witness.config, witness.process
    n = config.n
    cap = default_cap(n) if cap is None else cap
    others = [q for q in range(n) if q != p]
    faults = _fan_out(p, n, restricted)
    table: ExpansionTable = {}  # the chain's entries share one expansion
    chain = (step_fts(config, protocol, f, table) for f in faults)
    ff = None
    if not restricted:
        c1 = next(chain)
        ff = failure_free_decision(c1, protocol, cap, memo=memo).decision
        if ff != witness.silent_decision:
            w = _witness(c1, p, ff, silent_decision(c1, p, protocol, cap, memo=memo).decision)
            if w is None:
                raise InvariantViolation("full-silence successor failed re-verification")
            return AttackRound(fault=faults[0], witness=w)
        chain = itertools.chain((c1,), chain)
    try:
        k, w = find_dependent_in_chain(chain, others[1:] if restricted else others, protocol,
                                       cap, memo=memo, first_ff=ff)
    except NoFlipInChain:
        if restricted:
            raise ChainExhausted() from None
        raise InvariantViolation("progressive delivery chain endpoints failed to flip") from None
    return AttackRound(fault=faults[k], witness=w)


def _fan_out(p: Pid, n: int, restricted: bool) -> list[RoundFault]:
    """The faults of p's delivery chain: c_i delivers p's payload to the
    first i-1 of the others, from c_1 (c_2 if ``restricted``) to c_n."""
    others = [q for q in range(n) if q != p]
    return [RoundFault(p, others[i:]) for i in range(1 if restricted else 0, n)]


class AttackResult(NamedTuple):
    """A synthesized non-deciding execution prefix plus its dependence
    witnesses: entry 0 certifies the initial configuration, entry r the
    configuration after round r.  ``exhausted_at`` is set when the
    restricted adversary could not extend (and the trace stops short).
    ``lasso`` is (stem, loop) once the witness after round stem + loop
    repeats the one after round stem, its ``config_key`` included, so the
    execution goes on forever by repeating rounds stem + 1 .. stem + loop."""

    trace: ExecutionTrace
    witnesses: list[AttackRound]
    exhausted_at: Optional[int] = None
    lasso: Optional[tuple[int, int]] = None

    @property
    def rounds_built(self) -> int:
        return len(self.trace.steps)


def build_nondeciding_execution(
    protocol: RoundProtocol,
    n: int,
    rounds: int,
    cap: Optional[int] = None,
    restricted: bool = False,
) -> AttackResult:
    """Inductively build a ``rounds``-long execution every prefix of which
    ends in a dependent configuration, hence writes no output at all.

    All oracle probes of the attack share one memo, so a probe that reaches
    a configuration an earlier probe passed through under the same fault
    stops there.

    An extension depends only on the witness's pivot, decisions and
    ``config_key``: its probes, its chain and every error it can raise.  So
    once a witness repeats one recorded ``loop`` rounds earlier, every later
    round copies the fault and witness of the round ``loop`` before it, with
    the round advanced, and makes no probe.  Without a period no key repeats.

    With ``restricted`` set, a disagreeing probe that silences a process
    completely raises ``OutOfModelProbe`` instead of ``AgreementViolation``.
    A target with no flip on the input chain raises ``NoFlipInChain`` with
    its validity counterexample."""
    if rounds < 1:
        raise AdversimError("rounds must be >= 1")
    cap = default_cap(n) if cap is None else cap
    try:
        return _build(protocol, n, rounds, cap, restricted)
    except AgreementViolation as exc:
        if restricted and exc.fault == silence(exc.fault.sender, n):
            raise OutOfModelProbe(exc.fault, exc.trace) from exc
        raise


def _build(protocol: RoundProtocol, n: int, rounds: int, cap: int, restricted: bool) -> AttackResult:
    memo: OracleMemo = {}
    try:
        witness = find_initial_dependent(protocol, n, cap, memo=memo)
    except NoFlipInChain as exc:
        # the chain's ends decide the same b, so the unanimous 1 - b vector
        # decided b; both probes are the scan's own, read from the memo
        from .checking import replay_violation  # only this path loads checking

        zeros = initial_configuration(protocol, (0,) * n)
        inputs = (1 - failure_free_decision(zeros, protocol, cap, memo=memo).decision,) * n
        config = initial_configuration(protocol, inputs)
        used = failure_free_decision(config, protocol, cap, memo=memo).rounds_used
        exc.violation = replay_violation("validity", protocol, "fts", inputs, [NO_FAULT] * used)
        raise
    records = [AttackRound(fault=NO_FAULT, witness=witness)]
    steps: list[RoundStep] = []
    exhausted_at = None
    lasso = None
    # lasso key -> the round of the witness it was first seen at
    seen = {_lasso_key(witness, protocol): 0}
    for r in range(1, rounds + 1):
        if lasso is not None:
            fault, earlier = records[r - lasso[1]]
            config = earlier.config._replace(round=earlier.config.round + lasso[1])
            ext = AttackRound(fault=fault, witness=earlier._replace(config=config))
        else:
            try:
                ext = extend_dependent(witness, protocol, cap, restricted, memo=memo)
            except ChainExhausted:
                exhausted_at = r
                break
            except AgreementViolation as exc:  # from a chain entry: replay from round 1
                into = next(f for f in _fan_out(witness.process, n, restricted)
                            if step_fts(witness.config, protocol, f) == exc.start)
                faults = [s.fault for s in steps] + [into] + [exc.fault] * len(exc.trace.steps)
                exc.trace = run(records[0].witness.config, protocol, "fts", faults, len(faults)).trace
                raise
            r0 = seen.setdefault(_lasso_key(ext.witness, protocol), r)
            if r0 != r:
                lasso = (r0, r - r0)
        steps.append(RoundStep(round=witness.config.round, fault=ext.fault, outputs=()))
        records.append(ext)
        witness = ext.witness
    trace = ExecutionTrace(
        model="fts",
        n=n,
        protocol=protocol.protocol_id,
        inputs=records[0].witness.config.inputs(),
        steps=tuple(steps),
    )
    return AttackResult(trace=trace, witnesses=records, exhausted_at=exhausted_at, lasso=lasso)


def _lasso_key(witness: DependenceWitness, protocol: RoundProtocol) -> tuple:
    return (config_key(witness.config, protocol), witness.process, witness.ff_decision,
            witness.silent_decision)


def report_records(result: AttackResult) -> list[dict]:
    """Machine-readable attack report: one record per witness, carrying the
    generating fault and the cumulative output count (which must stay 0)."""
    records = []
    for entry in result.witnesses:
        rec: dict = {"round": entry.round}
        if entry.round > 0:
            rec["fault"] = {
                "sender": entry.fault.sender,
                "victims": sorted(entry.fault.victims),
            }
        rec["witness"] = {
            "pid": entry.witness.process,
            "ff": entry.witness.ff_decision,
            "silent": entry.witness.silent_decision,
        }
        # registers persist, so the current count is the cumulative count
        rec["outputs_written"] = len(entry.witness.config.outputs())
        records.append(rec)
    if result.exhausted_at is not None:
        records.append({"round": result.exhausted_at, "chain_exhausted": True})
    return records
