"""Shared domain types for the simulation lab.

Processes are numbered 0..n-1.  A process owns a read-only binary input, an
opaque internal state, and a write-once binary output register.  Engines own
all registers; protocols are pure state machines that never mutate anything.

This module also defines the trace model (JSON Lines, canonical form,
bit-exact round trip) and trace validation by deterministic replay.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, NamedTuple, Optional

MODELS = ("fts", "ftr", "flp")


class AdversimError(Exception):
    """Base class for all lab errors."""


class UnknownProtocolError(AdversimError):
    """Protocol id not present in the registry."""


class TraceFormatError(AdversimError):
    """Trace file cannot be parsed or violates the declared model's shape."""


class EngineError(AdversimError):
    """A protocol step failed inside an engine; carries round and pid."""

    def __init__(self, message: str, *, round: int, pid: int):
        super().__init__(f"round {round}, process {pid}: {message}")
        self.round = round
        self.pid = pid


# Raised by checking, nondecider and simulations, which re-export them; they
# live here so that the command line maps them to exit codes without
# importing those modules.


class BudgetExceeded(AdversimError):
    """An exhaustive check would build more children than its budget."""


class OracleCapExceeded(AdversimError):
    """The probed continuation did not fully decide within the round cap:
    the target is not live in the probed benign execution class."""

    def __init__(self, kind: str, cap: int):
        super().__init__(f"{kind} oracle exceeded cap of {cap} rounds")
        self.kind = kind
        self.cap = cap


class EmulationLemmaViolation(AdversimError):
    """A simulated round falls outside the simulated model.  Carries the
    gather's three-phase fault script as a counterexample when known."""

    def __init__(self, message: str, script=None):
        if script is not None:
            message += f"; fault script: {[f.mapping for f in script]}"
        super().__init__(message)
        self.script = script


# ---------------------------------------------------------------------------
# Process-local state and configurations
# ---------------------------------------------------------------------------

Pid = int

# A message payload: any immutable, hashable value - bytes, int, str, None,
# or tuples or frozensets of these.  Payloads that compare equal must be
# interchangeable to ``transition``: an expansion table reuses a transition
# computed on one for the other.  Engines and wrappers pass payloads along
# as they are; nothing serializes them.
Payload = Any


class LocalState(NamedTuple):
    """One process: binary input, opaque internal state, write-once output.

    A plain immutable tuple: it compares equal to, and hashes like, the
    tuple ``(input, internal, output)`` of its fields."""

    input: int
    internal: Any
    output: Optional[int] = None

    def write(self, value: Optional[int]) -> "LocalState":
        """First write sticks; later writes are ignored (write-once register)."""
        if value is None or self.output is not None:
            return self
        if value not in (0, 1):
            raise AdversimError(f"output must be 0 or 1, got {value!r}")
        return LocalState(self.input, self.internal, value)


class Configuration(NamedTuple):
    """Snapshot of every process state plus the index of the next round.

    A plain immutable tuple: it compares equal to, and hashes like, the
    tuple ``(round, states)``, and each state like the tuple of its fields,
    so memo tables and visited sets key on it at tuple cost."""

    round: int
    states: tuple[LocalState, ...]

    @property
    def n(self) -> int:
        return len(self.states)

    def outputs(self) -> dict[Pid, int]:
        """Outputs written so far, keyed by process id."""
        return {q: s.output for q, s in enumerate(self.states) if s.output is not None}

    def inputs(self) -> tuple[int, ...]:
        return tuple(s.input for s in self.states)

    def all_decided(self) -> bool:
        return all(s.output is not None for s in self.states)


def initial_configuration(protocol: "RoundProtocol", inputs: Iterable[int]) -> Configuration:
    """Round-1 configuration: fresh internal states, empty output registers."""
    states = []
    for pid, b in enumerate(inputs):
        if b not in (0, 1):
            raise AdversimError(f"inputs must be binary, got {b!r}")
        states.append(LocalState(input=b, internal=protocol.init(pid, b)))
    if len(states) < 2:
        raise AdversimError("need at least 2 processes")
    return Configuration(round=1, states=tuple(states))


# ---------------------------------------------------------------------------
# Per-round adversary choices
# ---------------------------------------------------------------------------


class RoundFault(NamedTuple("RoundFault", [("sender", Pid), ("victims", frozenset[Pid])])):
    """One round's fault in the fail-to-send model: a single sender whose
    broadcast is withheld from a set of victims.

    Canonical form never lists the sender among its victims (a process does
    not message itself, so membership would be meaningless).  A plain
    immutable tuple, like the trace steps: it compares equal to, and hashes
    like, the tuple ``(sender, victims)`` of its canonical fields."""

    __slots__ = ()

    def __new__(cls, sender: Pid, victims: Iterable[Pid]):
        victims = frozenset(victims)
        return tuple.__new__(cls, (sender, victims - {sender} if sender in victims else victims))

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so ``_replace`` canonicalises too."""
        return cls(*fields)

    @property
    def mapping(self) -> dict[Pid, Pid]:
        """Receiver -> the sender it misses: every victim misses the sender."""
        return dict.fromkeys(self.victims, self.sender)

    def validate(self, n: int) -> None:
        if not 0 <= self.sender < n:
            raise TraceFormatError(f"fault sender {self.sender} out of range for n={n}")
        victims = self.victims
        if victims and (min(victims) < 0 or max(victims) >= n):
            bad = [q for q in victims if not 0 <= q < n]
            raise TraceFormatError(f"fault victims {bad} out of range for n={n}")


NO_FAULT = RoundFault(0, frozenset())


class ReceiveFault(NamedTuple("ReceiveFault", [("drops", tuple[tuple[Pid, Pid], ...])])):
    """One round's fault in the fail-to-receive model: per receiver, at most
    one sender whose message that receiver misses.  ``drops`` holds the
    (receiver, dropped sender) pairs, sorted.  A plain immutable tuple, like
    ``RoundFault``."""

    __slots__ = ()

    def __new__(cls, dropped: Mapping[Pid, Pid] | Iterable[tuple[Pid, Pid]]):
        return tuple.__new__(cls, (tuple(sorted(dict(dropped).items())),))

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so ``_replace`` canonicalises too."""
        return cls(*fields)

    @property
    def mapping(self) -> dict[Pid, Pid]:
        return dict(self.drops)

    def validate(self, n: int) -> None:
        for receiver, sender in self.drops:
            if not 0 <= receiver < n or not 0 <= sender < n:
                raise TraceFormatError(f"drop ({receiver},{sender}) out of range for n={n}")
            if receiver == sender:
                raise TraceFormatError(f"process {receiver} cannot drop its own message")


NO_DROPS = ReceiveFault({})


# ---------------------------------------------------------------------------
# Protocol interfaces
# ---------------------------------------------------------------------------


class RoundProtocol:
    """Deterministic state machine for the synchronous round-based models.

    All three methods are pure.  ``transition`` receives the messages
    delivered this round as a mapping sender -> payload, built by the engine
    in ascending sender order (the models fix a delivery order; ascending id
    is the one used throughout this lab).  Payloads are opaque ``Payload``
    values: immutable and hashable, so wrappers can keep them in sets and
    send those sets on.  Payloads that compare equal must be interchangeable
    to ``transition``: the kernel reuses a transition computed on one for
    the other.  Internal states are immutable and hashable too: the
    decision oracles memoize their results by configuration.

    ``period`` is an optional round period that defines the round the
    protocol sees (``shown_round``), so it repeats every period rounds by
    construction.  Configurations, traces, reports and errors keep the true
    round.

    The synchronous kernel (``sync_engine._child``) calls ``transition`` at
    most once per (shown round, broadcast, receiver state, missed sender) of
    one expansion table, or, without a table, once per (receiver, missed
    sender) of a configuration it expands, and builds the next state once
    from the result.  It calls ``LocalState.write`` only for an output
    other than ``None``, so an output register stays write-once: the first
    output sticks.
    """

    protocol_id: str = "?"
    n: Optional[int] = None
    period: Optional[int] = None

    def init(self, pid: Pid, input: int) -> Any:
        raise NotImplementedError

    def message(self, internal: Any, round: int) -> Payload:
        raise NotImplementedError

    def transition(
        self, internal: Any, round: int, received: Mapping[Pid, Payload]
    ) -> tuple[Any, Optional[int]]:
        raise NotImplementedError


def shown_round(protocol: RoundProtocol, round: int) -> int:
    """The round every caller passes ``protocol`` at true round r: (r - 1)
    mod P + 1 when it declares period P, and r when it declares none."""
    period = getattr(protocol, "period", None)  # duck-typed protocols declare none
    return round if period is None else (round - 1) % period + 1


def config_key(config: Configuration, protocol: RoundProtocol) -> tuple:
    """All that ``protocol`` can tell apart about ``config``: configurations
    with equal keys have equal futures, so the attack's memo and lasso are
    exact."""
    return shown_round(protocol, config.round), config.states


class AsyncProtocol:
    """Deterministic state machine for the asynchronous model.

    One step optionally consumes a single incoming message (delivered by the
    engine as an ``(sender, payload)`` envelope), updates the internal state,
    and sends any number of messages.  A destination of ``None`` means
    broadcast to every other process; a process never sends to itself.
    Payloads follow the same ``Payload`` contract as round protocols.
    """

    protocol_id: str = "?"
    n: Optional[int] = None

    def init(self, pid: Pid, input: int) -> Any:
        raise NotImplementedError

    def step(
        self, internal: Any, incoming: Optional[tuple[Pid, Payload]]
    ) -> tuple[Any, list[tuple[Optional[Pid], Payload]], Optional[int]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Execution traces
# ---------------------------------------------------------------------------


# One step record per round or event, a plain immutable tuple: it compares
# equal to, and hashes like, the tuple of its fields.


class RoundStep(NamedTuple):
    round: int
    fault: RoundFault | ReceiveFault  # its type names the model, fts or ftr
    outputs: tuple[tuple[Pid, int], ...]  # outputs written this round, sorted


class FlpStep(NamedTuple):
    pid: Pid
    deliver: Optional[int] = None  # send index of the delivered message, if any
    crash: bool = False
    outputs: tuple[tuple[Pid, int], ...] = ()  # a scheduler's event has none


TraceStep = RoundStep | FlpStep


class ExecutionTrace(NamedTuple):
    """Finite prefix of an execution: header plus one record per step.

    Replaying the steps from the inputs under the named protocol must
    reproduce the recorded outputs exactly.
    """

    model: str
    n: int
    protocol: str
    inputs: tuple[int, ...]
    steps: tuple[TraceStep, ...]

    def output_map(self) -> dict[Pid, int]:
        """First written output per process across the whole trace."""
        outs: dict[Pid, int] = {}
        for step in self.steps:
            for pid, value in step.outputs:
                outs.setdefault(pid, value)
        return outs

    # -- canonical JSON Lines form ------------------------------------------

    def to_jsonl(self) -> str:
        header = {
            "model": self.model,
            "n": self.n,
            "protocol": self.protocol,
            "inputs": list(self.inputs),
        }
        return "\n".join([_dumps(header), *map(_step_line, self.steps)]) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ExecutionTrace":
        lines = _numbered_lines(text)
        if not lines:
            raise TraceFormatError("empty trace file")
        header = _loads(lines[0][1], lines[0][0])
        for key in ("model", "n", "protocol", "inputs"):
            if key not in header:
                raise TraceFormatError(f"header missing {key!r}")
        model = header["model"]
        if model not in MODELS:
            raise TraceFormatError(f"unknown model tag {model!r}")
        n = header["n"]
        if not _is_int(n) or n < 2:
            raise TraceFormatError(f"bad n {n!r}")
        if not isinstance(header["protocol"], str):
            raise TraceFormatError(f"bad protocol {header['protocol']!r}")
        inputs = header["inputs"]
        if not isinstance(inputs, list) or len(inputs) != n or not all(map(_is_bit, inputs)):
            raise TraceFormatError("inputs must be a binary array of length n")
        inputs = tuple(inputs)
        steps = tuple(_parse_step(model, _loads(line, i), i) for i, line in lines[1:])
        return cls(model=model, n=n, protocol=header["protocol"], inputs=inputs, steps=steps)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def read(cls, path) -> "ExecutionTrace":
        return cls.from_jsonl(_read_text(path))


def write_jsonl(path, records) -> None:
    """Write each record as one canonical JSON line: a report's form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_dumps(rec) + "\n" for rec in records)


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """Each non-blank line of a trace or script with its physical number."""
    return [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _read_text(path) -> str:
    """A trace or script file's text; a path that cannot be read, or whose
    bytes are not UTF-8, is a trace error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise TraceFormatError(f"cannot read {path}: {exc.strerror or exc}") from None


# One encoder for every record: json.dumps with these arguments builds a new
# one on each call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(obj) -> str:
    return _ENCODER.encode(obj)


def _loads(line: str, lineno: int):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {lineno}: expected an object")
    return obj


def _pid_object(pairs: tuple[tuple[Pid, int], ...]) -> str:
    """``(pid, int)`` pairs as a JSON object in ``sort_keys`` order (pid 10
    before pid 2): a key's closing quote sorts below every digit and "-"."""
    if not pairs:
        return "{}"  # most steps write no output and most rounds drop nothing
    return "{" + ",".join(sorted(['"%d":%d' % pair for pair in pairs])) + "}"


def _step_line(step: TraceStep) -> str:
    """A step's canonical record, formatted directly: byte for byte what
    ``_dumps`` writes for the step's fields."""
    if isinstance(step, FlpStep):
        return '{"crash":%s,"deliver":%s,"event":"step","outputs":%s,"pid":%d}' % (
            "true" if step.crash else "false",
            "null" if step.deliver is None else "%d" % step.deliver,
            _pid_object(step.outputs),
            step.pid,
        )
    if isinstance(step.fault, ReceiveFault):
        return '{"dropped":%s,"outputs":%s,"round":%d}' % (
            _pid_object(step.fault.drops),
            _pid_object(step.outputs),
            step.round,
        )
    return '{"outputs":%s,"round":%d,"sender":%d,"victims":[%s]}' % (
        _pid_object(step.outputs),
        step.round,
        step.fault.sender,
        ",".join(["%d" % q for q in sorted(step.fault.victims)]),
    )


def _parse_outputs(record: dict, lineno: int) -> tuple[tuple[Pid, int], ...]:
    raw = record.get("outputs", {})
    if not isinstance(raw, dict):
        raise TraceFormatError(f"line {lineno}: outputs must be an object")
    outs = []
    for key, value in raw.items():
        try:
            pid = int(key)
        except ValueError:
            raise TraceFormatError(f"line {lineno}: bad output pid {key!r}") from None
        if not _is_bit(value):
            raise TraceFormatError(f"line {lineno}: output value must be 0 or 1")
        outs.append((pid, value))
    return tuple(sorted(outs))


def _is_int(value) -> bool:
    """A JSON integer; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_bit(value) -> bool:
    return _is_int(value) and value in (0, 1)


# Step fields and the JSON values each accepts, with how to name them.
_STEP_FIELDS = {
    "round": (_is_int, "an integer"),
    "sender": (_is_int, "an integer"),
    "victims": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "dropped": (lambda v: isinstance(v, dict), "an object"),
    "pid": (_is_int, "an integer"),
    "deliver": (lambda v: v is None or _is_int(v), "an integer or null"),
    "crash": (lambda v: isinstance(v, bool), "a boolean"),
}


def _parse_step(model: str, record: dict, lineno: int) -> TraceStep:
    outputs = _parse_outputs(record, lineno)

    def field(key):
        if key not in record:
            raise TraceFormatError(f"line {lineno}: {model} step missing {key!r}")
        ok, what = _STEP_FIELDS[key]
        if not ok(record[key]):
            raise TraceFormatError(f"line {lineno}: {key} must be {what}, got {record[key]!r}")
        return record[key]

    if model == "fts":
        fault = RoundFault(field("sender"), field("victims"))
        return RoundStep(round=field("round"), fault=fault, outputs=outputs)
    if model == "ftr":
        try:
            dropped = {int(k): v for k, v in field("dropped").items()}
        except ValueError:
            raise TraceFormatError(f"line {lineno}: bad dropped map") from None
        if not all(map(_is_int, dropped.values())):
            raise TraceFormatError(f"line {lineno}: dropped senders must be integers")
        return RoundStep(round=field("round"), fault=ReceiveFault(dropped), outputs=outputs)
    if record.get("event") != "step":
        raise TraceFormatError(f"line {lineno}: flp step must have event='step'")
    return FlpStep(
        pid=field("pid"), deliver=field("deliver"), crash=field("crash"), outputs=outputs
    )


def read_step_script(path, model: str) -> list[TraceStep]:
    """Parse a JSONL step script: one record per non-blank line, in the
    schema of the model's trace steps."""
    return [
        _parse_step(model, _loads(line, lineno), lineno)
        for lineno, line in _numbered_lines(_read_text(path))
    ]


# ---------------------------------------------------------------------------
# Consensus outcome check (colorless relation)
# ---------------------------------------------------------------------------


class ConsensusCheck(NamedTuple):
    ok: bool
    violation: Optional[str] = None  # "agreement" | "validity"

    def __bool__(self) -> bool:
        return self.ok


def check_colorless_outcome(inputs: Iterable[int], outputs: Iterable[int]) -> ConsensusCheck:
    """Check collected outputs against the consensus relation.

    Fails on agreement if both values were output, and on validity if the
    inputs were unanimously b yet some process output the other value.  An
    empty output set passes (a truncated run has not violated anything).
    """
    ins = set(inputs)
    outs = set(outputs)
    if {0, 1} <= outs:
        return ConsensusCheck(False, "agreement")
    if len(ins) == 1:
        (b,) = ins
        if (1 - b) in outs:
            return ConsensusCheck(False, "validity")
    return ConsensusCheck(True)


# ---------------------------------------------------------------------------
# Trace validation by replay
# ---------------------------------------------------------------------------


class ValidationReport(NamedTuple):
    valid: bool
    problems: list[str]

    def __bool__(self) -> bool:
        return self.valid


def validate_trace(
    trace: ExecutionTrace,
    ignore_outputs: Iterable[Pid] = (),
) -> ValidationReport:
    """Check a trace by replaying it through its model's engine.

    The engines are the one definition of a legal step: the trace's faults
    (fts/ftr) or events (flp) are replayed from its inputs through
    ``sync_engine.run`` or ``async_engine.run_async``.  An engine refusal is
    the only problem reported, as ``replay failed: <message>``.  Otherwise
    each recorded step is compared with its replayed step, one problem per
    mismatch: its round (fts/ftr), the write-once discipline of its outputs,
    and the outputs themselves.  ``ignore_outputs`` exempts the named
    processes from the output comparison (used when a projected trace
    intentionally omits part of a process's behaviour).

    Raises UnknownProtocolError if the header names an unregistered protocol.
    """
    from .protocols import get_protocol

    try:
        protocol = get_protocol(trace.protocol, trace.n)  # may raise UnknownProtocolError
    except ValueError as exc:  # the protocol does not run at the header's n
        return ValidationReport(valid=False, problems=[f"header: {exc}"])
    if isinstance(protocol, AsyncProtocol) != (trace.model == "flp"):
        problem = f"protocol {trace.protocol!r} does not run on the {trace.model} model"
        return ValidationReport(valid=False, problems=[problem])
    try:
        if trace.model == "flp":
            from .async_engine import ScriptedScheduler, run_async

            scheduler = ScriptedScheduler(trace.steps)
            result = run_async(trace.inputs, protocol, scheduler, len(trace.steps))
        else:  # a step of the other model's kind goes in as it is, and run refuses it
            from .sync_engine import run

            faults = [step.fault if isinstance(step, RoundStep) else step for step in trace.steps]
            config = initial_configuration(protocol, trace.inputs)
            result = run(config, protocol, trace.model, faults, len(faults))
    except Exception as exc:  # noqa: BLE001 - any replay failure invalidates
        return ValidationReport(valid=False, problems=[f"replay failed: {exc}"])

    problems: list[str] = []
    ignore, rounds, written = frozenset(ignore_outputs), set(), set()
    for i, (step, rep) in enumerate(zip(trace.steps, result.trace.steps), start=1):
        if isinstance(step, RoundStep):
            if step.round in rounds:
                problems.append(f"step {i}: multiple faulty senders in round {step.round}")
            elif step.round != rep.round:
                problems.append(f"step {i}: expected round {rep.round}, found {step.round}")
            rounds.add(step.round)
        for pid, _ in step.outputs:
            if pid in written:
                problems.append(f"step {i}: write-once violation for process {pid}")
            written.add(pid)
        rec = {pid: v for pid, v in step.outputs if pid not in ignore}
        exp = {pid: v for pid, v in rep.outputs if pid not in ignore}
        if rec != exp:
            problems.append(f"step {i}: recorded outputs {rec} diverge from replayed {exp}")
    return ValidationReport(valid=not problems, problems=problems)
