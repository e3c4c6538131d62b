"""Command-line front end.

Subcommands: ``run`` (one model directly), ``attack`` (synthesize a
non-deciding execution), ``check`` (exhaustive or fuzz property checking),
``simulate`` (composed model stacks with faithfulness reports), ``validate``
(replay a trace file).

Exit codes: 0 ok, 1 property violation, 2 oracle precondition failed (the
cap exceeded, or a restricted attack probed a fault the model forbids), 3 unknown
protocol, 4 budget exceeded, 5 trace error, 64 usage error, 70 internal error
(a protocol or engine bug, or any other unexpected exception).  Reports
are machine-readable JSON Lines; the human-readable summary goes to stderr.
All randomness in a command flows from its single --seed through named
derived streams, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
from typing import Optional

from . import checking, nondecider
from .async_engine import (
    RoundRobinScheduler,
    ScheduleError,
    ScriptedScheduler,
    SeededFairScheduler,
    run_async,
    scripted_scheduler_from_file,
)
from .core import (
    AdversimError,
    AsyncProtocol,
    ExecutionTrace,
    TraceFormatError,
    UnknownProtocolError,
    initial_configuration,
    read_step_script,
    validate_trace,
    _dumps,
)
from .checking import BudgetExceeded
from .nondecider import AgreementViolation, OracleCapExceeded
from .protocols import get_protocol
from .simulations import EmulationLemmaViolation, audit_stack, build_stack, stack_model
from .sync_engine import random_faults, run, silence

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ORACLE_CAP = 2
EXIT_UNKNOWN_PROTOCOL = 3
EXIT_BUDGET = 4
EXIT_TRACE = 5
EXIT_USAGE = 64
EXIT_INTERNAL = 70

OUTDIR_ENV = "ADVERSIM_OUTDIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage errors off the contract codes
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(AdversimError):
    pass


def _at_least(minimum: int):
    """Argparse type for an integer flag with a lower bound, so a bad count
    is a usage error naming the flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _outpath(arg: Optional[str], default_name: str) -> str:
    if arg:
        return arg
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), default_name)


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_dumps(rec) + "\n")


def _parse_inputs(args, n: int, rng_seed_tag: str = "inputs") -> tuple[int, ...]:
    if args.inputs:
        try:
            bits = tuple(int(b) for b in args.inputs.split(","))
        except ValueError:
            raise UsageError(f"bad --inputs {args.inputs!r}") from None
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise UsageError("--inputs must be n comma-separated bits")
        return bits
    if args.seed is None:
        raise UsageError("provide --inputs or --seed for random inputs")
    rng = random.Random(checking.stream_seed(args.seed, rng_seed_tag))
    return tuple(rng.randrange(2) for _ in range(n))


def _faults(spec: str, model: str, n: int, seed: Optional[int], restricted: bool):
    """The fault sequence an ``--adversary`` spec names."""
    if spec == "none":
        return ()
    if spec.startswith("silent:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad adversary spec {spec!r}") from None
        if not 0 <= p < n:
            raise UsageError(f"silent process {p} out of range")
        return itertools.repeat(silence(p, n, model))
    if spec.startswith("script:"):
        return [step.fault for step in read_step_script(spec.split(":", 1)[1], model)]
    if spec == "random":
        if seed is None:
            raise UsageError("--adversary random requires --seed")
        rng = random.Random(checking.stream_seed(seed, "adversary"))
        return random_faults(n, rng, model, restricted)
    raise UsageError(f"unknown adversary spec {spec!r}")


def _check_restricted(args, model: str) -> None:
    """``--restricted`` forbids full-silence faults, which only the
    fail-to-send model has."""
    if args.restricted and model != "fts":
        raise UsageError(f"--restricted applies to --model fts only, not {model}")


# The engine flags each engine reads, with the value an omitted flag takes.
_ENGINE_FLAGS = {
    "fts": {"adversary": "none"},
    "ftr": {"adversary": "none"},
    "flp": {"scheduler": "round-robin", "crash": None, "fairness_window": None},
}


def _check_engine_flags(args, model: str) -> None:
    """Refuse an engine flag the chosen engine never reads, and give each
    flag it does read its default when omitted."""
    for name in ("adversary", "scheduler", "crash", "fairness_window"):
        if getattr(args, name, None) is None:
            setattr(args, name, _ENGINE_FLAGS[model].get(name))
        elif name not in _ENGINE_FLAGS[model]:
            raise UsageError(f"--{name.replace('_', '-')} is not read by the {model} engine")


def _parse_crash(spec: Optional[str], n: int):
    if not spec:
        return None
    try:
        pid, step = (int(x) for x in spec.split(":"))
    except ValueError:
        raise UsageError(f"bad --crash {spec!r}, expected PID:STEP") from None
    if not 0 <= pid < n:
        raise UsageError(f"--crash process {pid} out of range")
    if step < 0:
        raise UsageError(f"--crash step {step} must be >= 0")
    return (pid, step)


def _run_async(args, protocol, inputs, **kwargs):
    """Run the command's scheduler; an event a scheduler script cannot play
    is an error in that script, not in the engine."""
    spec, n = args.scheduler, args.n
    crash = _parse_crash(args.crash, n)
    if spec == "round-robin":
        scheduler = RoundRobinScheduler(n, crash=crash)
    elif spec == "random":
        if args.seed is None:
            raise UsageError("--scheduler random requires --seed")
        seed = checking.stream_seed(args.seed, "scheduler")
        scheduler = SeededFairScheduler(n, seed, crash=crash)
    elif spec.startswith("script:"):
        if crash is not None:
            # a script crashes a process through its own "crash" events
            raise UsageError("--crash does not apply to --scheduler script:PATH")
        scheduler = scripted_scheduler_from_file(spec.split(":", 1)[1])
    else:
        raise UsageError(f"unknown scheduler spec {spec!r}")
    try:
        return run_async(inputs, protocol, scheduler, args.horizon, **kwargs)
    except ScheduleError as exc:
        if isinstance(scheduler, ScriptedScheduler):
            raise TraceFormatError(f"{spec}: {exc}") from None
        raise


def _protocol(protocol_id: str, n: int, stack: Optional[str] = None):
    """Build the protocol a command names.  Constructors reject a size they
    do not support with ValueError, which on the command line is a usage
    error, as is a size no protocol runs at."""
    if n < 2:
        raise UsageError(f"--n {n}: need at least 2 processes")
    try:
        if stack is None:
            return get_protocol(protocol_id, n)
        return build_stack(stack, protocol_id, n)
    except ValueError as exc:
        raise UsageError(f"--n {n}: {exc}") from None


def _round_protocol(args):
    """The protocol of a command on the fts/ftr engines, which must be round-based."""
    protocol = _protocol(args.protocol, args.n)
    if isinstance(protocol, AsyncProtocol):
        raise UsageError(f"{args.protocol!r} is asynchronous; run it with run --model flp")
    return protocol


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    _check_restricted(args, args.model)
    _check_engine_flags(args, args.model)
    fairness_note = ""
    if args.model == "flp":
        protocol = _protocol(args.protocol, args.n)
        if not isinstance(protocol, AsyncProtocol):
            raise UsageError(
                f"{args.protocol!r} is round-based; run it under fts/ftr or via a stack id"
            )
        inputs = _parse_inputs(args, args.n)
        result = _run_async(args, protocol, inputs, fairness_window=args.fairness_window)
        outputs = result.final_state.outputs()
        if result.fairness is not None:
            fairness_note = " fairness=ok" if result.fairness.ok else " fairness=VIOLATED"
            for v in (result.fairness.violations or [])[:5]:
                _say(f"fairness: {v}")
    else:
        protocol = _round_protocol(args)
        engine = stack_model(args.protocol.split(":", 1)[0]) if ":" in args.protocol else None
        if engine not in (None, args.model):
            raise UsageError(f"stack {args.protocol!r} runs on model {engine!r}, not {args.model!r}")
        inputs = _parse_inputs(args, args.n)
        faults = _faults(args.adversary, args.model, args.n, args.seed, args.restricted)
        config = initial_configuration(protocol, inputs)
        result = run(config, protocol, args.model, faults, args.horizon)
        outputs = result.final_config.outputs()

    out = _outpath(args.out, "run.trace.jsonl")
    result.trace.write(out)
    _say(
        f"run: model={args.model} protocol={args.protocol} n={args.n} "
        f"horizon={args.horizon} outputs={outputs}{fairness_note}"
    )
    _say(f"trace written to {out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    protocol = _round_protocol(args)
    try:
        result = nondecider.build_nondeciding_execution(
            protocol, args.n, rounds=args.rounds, cap=args.cap, restricted=args.restricted
        )
    except nondecider.NoFlipInChain:
        _say(
            "attack: no dependent initial configuration (failure-free decisions "
            "never flip across the input chain; target is not pseudo-consensus)"
        )
        return EXIT_VIOLATION
    except nondecider.OutOfModelProbe as exc:
        out = _outpath(None, "probe.trace.jsonl")
        exc.trace.write(out)
        _say(f"attack: oracle precondition fails under --restricted: {exc}; probe trace written to {out}")
        return EXIT_ORACLE_CAP
    except AgreementViolation as exc:
        out = _outpath(None, "violation.trace.jsonl")
        report = _outpath(None, "violation.report.jsonl")
        exc.trace.write(out)
        outputs = {str(q): v for q, v in sorted(exc.outputs.items())}
        _write_jsonl(report, [{"violation": "agreement", "outputs": outputs}])
        _say(f"attack: {exc}; trace written to {out}; report written to {report}")
        return EXIT_VIOLATION
    out = _outpath(args.out, "attack.trace.jsonl")
    report = _outpath(args.report, "attack.report.jsonl")
    result.trace.write(out)
    _write_jsonl(report, nondecider.report_records(result))
    written = result.outputs_written()
    if result.exhausted_at is not None:
        limit = (
            "; this is a limit of the restricted construction, not evidence "
            f"that {protocol.protocol_id} terminates"
            if args.restricted
            else ""
        )
        _say(
            f"attack: chain exhausted at round {result.exhausted_at} "
            f"({result.rounds_built} rounds built, {written} outputs written){limit}"
        )
        if not args.restricted:
            # Unrestricted extension is total on live targets; only the
            # restricted adversary may legitimately run out of chain.
            return EXIT_VIOLATION
    else:
        _say(
            f"attack: built {result.rounds_built} non-deciding rounds, "
            f"{len(result.witnesses)} witnesses, {written} outputs written"
        )
    _say(f"trace written to {out}; report written to {report}")
    return EXIT_OK


def cmd_check(args) -> int:
    _check_restricted(args, args.model)
    protocol = _round_protocol(args)
    if args.mode == "exhaustive":
        result = checking.check_exhaustive(
            protocol,
            args.n,
            depth=args.depth,
            model=args.model,
            restricted=args.restricted,
            budget=args.budget,
        )
    else:
        if args.seed is None:
            raise UsageError("fuzz mode requires --seed")
        result = checking.check_fuzz(
            protocol,
            args.n,
            runs=args.runs,
            depth=args.depth,
            seed=args.seed,
            model=args.model,
            restricted=args.restricted,
        )
    if result.ok:
        _say(
            f"check: no violation ({args.mode}, protocol={args.protocol}, n={args.n}, "
            f"depth={args.depth}, {result.explored} rounds explored)"
        )
        return EXIT_OK
    v = result.violation
    out = _outpath(args.out, "violation.trace.jsonl")
    v.trace.write(out)
    report = _outpath(args.report, "violation.report.jsonl")
    _write_jsonl(report, [v.record()])
    _say(
        f"check: {v.kind} violation at round {v.round}, inputs={list(v.inputs)}, "
        f"outputs={v.outputs}"
    )
    _say(f"replayable trace written to {out}; report written to {report}")
    return EXIT_VIOLATION


def cmd_simulate(args) -> int:
    model = stack_model(args.stack)
    _check_engine_flags(args, model)
    protocol = _protocol(args.protocol, args.n, args.stack)
    inputs = _parse_inputs(args, args.n)
    out = _outpath(args.out, "simulate.trace.jsonl")
    report_path = _outpath(args.report, "simulate.report.jsonl")
    if model == "flp":
        result = _run_async(args, protocol, inputs)
    else:
        faults = _faults(args.adversary, model, args.n, args.seed, False)
        config = initial_configuration(protocol, inputs)
        result = run(config, protocol, model, faults, args.horizon, keep_configs=True)
    result.trace.write(out)
    audit = audit_stack(protocol, result)
    _say(f"simulate: {audit.summary}")
    _write_jsonl(report_path, audit.records)
    _say(f"trace written to {out}; report written to {report_path}")
    return EXIT_OK if audit.ok else EXIT_VIOLATION


def cmd_validate(args) -> int:
    trace = ExecutionTrace.read(args.trace)
    report = validate_trace(trace)
    if report.valid:
        _say(f"validate: {args.trace} ok ({len(trace.steps)} steps, model {trace.model})")
        return EXIT_OK
    for p in report.problems:
        _say(f"validate: {p}")
    return EXIT_TRACE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="adversim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, horizon_default=30):
        p.add_argument("--protocol", required=True, help="protocol or stack:base id")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--inputs", help="comma-separated bits, one per process")
        p.add_argument("--seed", type=int, help="single seed for all randomized choices")
        p.add_argument("--horizon", type=_at_least(0), default=horizon_default)
        p.add_argument("--out", help="trace output path (default under $ADVERSIM_OUTDIR)")

    p = sub.add_parser("run", help="execute one model directly")
    common(p)
    p.add_argument("--model", choices=("fts", "ftr", "flp"), required=True)
    p.add_argument("--adversary", help="none (default) | silent:P | script:PATH | random (fts/ftr)")
    p.add_argument("--restricted", action="store_true", help="forbid full-silence faults")
    p.add_argument("--scheduler", help="round-robin (default) | random | script:PATH (flp)")
    p.add_argument("--crash", help="PID:STEP crash directive (flp)")
    p.add_argument(
        "--fairness-window", type=_at_least(1), help="audit fairness with this window (flp)"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack", help="synthesize a non-deciding execution")
    p.add_argument("--protocol", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rounds", type=_at_least(1), default=30)
    p.add_argument("--cap", type=_at_least(1), help="oracle round cap (default 10n)")
    p.add_argument("--restricted", action="store_true", help="forbid full-silence faults")
    p.add_argument("--out", help="trace output path")
    p.add_argument("--report", help="witness report path")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("check", help="agreement/validity/write-once checking")
    p.add_argument("--protocol", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "fuzz"), default="exhaustive")
    p.add_argument("--model", choices=("fts", "ftr"), default="fts")
    p.add_argument("--depth", type=_at_least(1), default=4)
    p.add_argument("--runs", type=_at_least(1), default=1000, help="fuzz run count")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--budget", type=_at_least(1), default=2_000_000,
        help="most children an exhaustive check may build",
    )
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--out", help="violation trace path")
    p.add_argument("--report", help="violation report path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run a composed model stack")
    common(p, horizon_default=60)
    p.add_argument(
        "--stack",
        required=True,
        help="fts-over-ftr | ftr-over-flp | flp-over-ftr | nested (a-over-b-over-c)",
    )
    p.add_argument("--adversary", help="as for run (fts/ftr engine)")
    p.add_argument("--scheduler", help="as for run (flp engine)")
    p.add_argument("--crash", help="PID:STEP crash directive (flp engine)")
    p.add_argument("--report", help="faithfulness report path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="replay and validate a trace file")
    p.add_argument("trace", help="trace file path")
    p.set_defaults(func=cmd_validate)

    return parser


# Exception -> (exit code, message prefix); the first matching row wins.
# Reading a trace or script turns its OSError into TraceFormatError, so an
# OSError that gets here comes from writing an artefact.
EXIT_CODES = (
    (UsageError, EXIT_USAGE, ""),
    (OSError, EXIT_USAGE, "cannot write artefact: "),
    (UnknownProtocolError, EXIT_UNKNOWN_PROTOCOL, ""),
    (OracleCapExceeded, EXIT_ORACLE_CAP, ""),
    (BudgetExceeded, EXIT_BUDGET, ""),
    (TraceFormatError, EXIT_TRACE, ""),
    (EmulationLemmaViolation, EXIT_VIOLATION, ""),
    (AdversimError, EXIT_INTERNAL, "internal error: "),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdversimError, OSError) as exc:
        code, prefix = next((c, p) for kind, c, p in EXIT_CODES if isinstance(exc, kind))
        _say(f"adversim: {prefix}{exc}")
        return code
    except Exception as exc:  # noqa: BLE001 - a bug outside the engines' wrapping
        _say(f"adversim: internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
