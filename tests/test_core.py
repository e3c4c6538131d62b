"""Core types, trace round trips, validation, and the consensus relation."""

import os
import subprocess
import sys
import textwrap
from itertools import repeat

import pytest
from conftest import SRC
from hypothesis import given, settings, strategies as st

from adversim.async_engine import RoundRobinScheduler, run_async
from adversim.checking import CheckResult, check_exhaustive, check_fuzz

from adversim.core import (
    AdversimError,
    ExecutionTrace,
    FlpStep,
    LocalState,
    ReceiveFault,
    RoundFault,
    RoundStep,
    TraceFormatError,
    UnknownProtocolError,
    ValidationReport,
    _dumps,
    _step_line,
    check_colorless_outcome,
    initial_configuration,
    read_step_script,
    validate_trace,
)
from adversim.nondecider import (
    DependenceWitness,
    build_nondeciding_execution,
    failure_free_decision,
    find_initial_dependent,
)
from adversim.protocols import PhaseKingLite
from adversim.simulations import SynchronizerWrapper
from adversim.sync_engine import run, silence


def test_round_fault_canonical_excludes_sender():
    fault = RoundFault(1, [0, 1, 2])
    assert fault.victims == frozenset({0, 2})
    assert RoundFault(1, [0, 2]) == fault


def test_receive_fault_rejects_self_drop():
    with pytest.raises(TraceFormatError):
        ReceiveFault({1: 1}).validate(3)


def test_receive_fault_mapping_sorted():
    fault = ReceiveFault({2: 0, 0: 1})
    assert fault.drops == ((0, 1), (2, 0))
    assert fault.mapping == {0: 1, 2: 0}


def test_output_register_write_once():
    s = LocalState(input=0, internal=None)
    s1 = s.write(1)
    assert s1.output == 1
    assert s1.write(0).output == 1  # later writes ignored
    assert s1.write(None).output == 1


def test_output_register_rejects_non_binary_and_keeps_none():
    s = LocalState(input=1, internal=None)
    assert s.write(None) is s
    with pytest.raises(AdversimError):
        s.write(2)


def test_local_state_and_configuration_are_plain_tuples():
    pk = PhaseKingLite(3)
    c = run(initial_configuration(pk, (1, 0, 1)), pk, "fts", (), horizon=3).final_config
    assert c.outputs()
    plain = (c.round, tuple(tuple(s) for s in c.states))
    assert c == plain and hash(c) == hash(plain)
    s = c.states[0]
    assert s == (s.input, s.internal, s.output) and hash(s) == hash(tuple(s))
    for value, attribute in [(s, "output"), (s, "extra"), (c, "round"), (c, "extra")]:
        with pytest.raises(AttributeError):
            setattr(value, attribute, 0)


# -- consensus relation ------------------------------------------------------


def test_colorless_unanimous_pass():
    assert check_colorless_outcome({0}, {0}).ok


def test_colorless_agreement_failure():
    outcome = check_colorless_outcome({0, 1}, {0, 1})
    assert not outcome.ok and outcome.violation == "agreement"


def test_colorless_validity_failure():
    outcome = check_colorless_outcome({1}, {0})
    assert not outcome.ok and outcome.violation == "validity"


def test_colorless_empty_outputs_pass():
    assert check_colorless_outcome({0, 1}, set()).ok


def test_failed_check_and_invalid_report_are_falsy():
    # two-field records are truthy tuples; only __bool__ makes a failure read as one
    assert not check_colorless_outcome({1}, {0}) and check_colorless_outcome({1}, {1})
    assert not ValidationReport(False, ["bad step"]) and ValidationReport(True, [])


# -- trace serialization -----------------------------------------------------


def test_empty_trace_round_trip_and_valid():
    trace = ExecutionTrace(model="fts", n=3, protocol="phase-king-lite", inputs=(0, 1, 0), steps=())
    text = trace.to_jsonl()
    again = ExecutionTrace.from_jsonl(text)
    assert again == trace
    assert again.to_jsonl() == text
    assert validate_trace(trace).valid  # vacuous replay


def test_engine_trace_round_trips_bit_exact(tmp_path):
    pk = PhaseKingLite(3)
    config = initial_configuration(pk, (1, 0, 0))
    trace = run(config, pk, "fts", repeat(silence(2, 3)), horizon=6).trace
    path = tmp_path / "t.jsonl"
    trace.write(path)
    text = path.read_text()
    assert ExecutionTrace.read(path) == trace
    assert ExecutionTrace.from_jsonl(text).to_jsonl() == text


def test_engine_trace_validates():
    pk = PhaseKingLite(3)
    config = initial_configuration(pk, (1, 0, 0))
    trace = run(config, pk, "fts", (), horizon=6).trace
    report = validate_trace(trace)
    assert report.valid, report.problems


def test_output_map_holds_each_process_first_output():
    pk = PhaseKingLite(4)
    result = run(initial_configuration(pk, (1, 0, 1, 1)), pk, "fts", (), horizon=12)
    trace = result.trace
    written = [w for step in trace.steps for w in step.outputs]
    assert sorted(q for q, _ in written) == [0, 1, 2, 3]  # each process writes once
    assert trace.output_map() == dict(written) == result.final_config.outputs()
    # a later step writing the other value leaves each process's first output
    rewrite = tuple((q, 1 - v) for q, v in written)
    last = trace.steps[-1]._replace(outputs=rewrite)
    assert trace._replace(steps=(*trace.steps, last)).output_map() == dict(written)


@settings(max_examples=60, deadline=None)
@given(
    inputs=st.lists(st.integers(0, 1), min_size=3, max_size=5),
    data=st.data(),
)
def test_fts_trace_round_trip_property(inputs, data):
    n = len(inputs)
    steps = []
    for r in range(data.draw(st.integers(0, 5))):
        sender = data.draw(st.integers(0, n - 1))
        victims = data.draw(st.sets(st.integers(0, n - 1)))
        outs = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1), max_size=2))
        steps.append(
            RoundStep(round=r + 1, fault=RoundFault(sender, victims), outputs=tuple(sorted(outs.items())))
        )
    trace = ExecutionTrace(
        model="fts", n=n, protocol="phase-king-lite", inputs=tuple(inputs), steps=tuple(steps)
    )
    text = trace.to_jsonl()
    assert ExecutionTrace.from_jsonl(text) == trace
    assert ExecutionTrace.from_jsonl(text).to_jsonl() == text


def test_trace_steps_are_plain_tuples():
    fault, drops = RoundFault(0, [1, 2]), ReceiveFault({1: 0})
    step = RoundStep(1, fault, ((1, 0),))
    trace = ExecutionTrace("fts", 3, "phase-king-lite", (1, 0, 1), (step,))
    config = initial_configuration(PhaseKingLite(3), (1, 0, 1))
    cases = [
        (step, (1, fault, ((1, 0),))),
        (RoundStep(2, drops, ()), (2, drops, ())),
        (FlpStep(0, None, False, ((0, 1),)), (0, None, False, ((0, 1),))),
        # the fault records canonicalise their arguments on construction
        (RoundFault(1, [1, 2]), (1, frozenset({2}))),
        (ReceiveFault({2: 0, 1: 0}), (((1, 0), (2, 0)),)),
        (trace, ("fts", 3, "phase-king-lite", (1, 0, 1), (step,))),
        (DependenceWitness(config, 0, 1, 0), (config, 0, 1, 0)),
        (CheckResult(None, 7), (None, 7)),
    ]
    for record, plain in cases:
        assert record == plain and hash(record) == hash(plain)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    # ``_make`` and ``_replace`` go through the same canonicalisation
    assert RoundFault(1, [2])._replace(victims=[1, 2]) == RoundFault._make((1, [2, 1]))
    assert RoundFault(1, [2])._replace(victims=[1, 2]) == (1, frozenset({2}))
    assert ReceiveFault({})._replace(drops={2: 0, 1: 0}) == (((1, 0), (2, 0)),)


def test_package_refuses_an_unknown_name():
    import adversim

    with pytest.raises(AttributeError, match="^module 'adversim' has no attribute 'nope'$"):
        adversim.nope


def test_cli_import_loads_no_dataclasses_or_inspect(tmp_path):
    """The records are tuples, so importing the command line pulls in
    neither ``dataclasses`` nor the ``inspect`` it imports.  Each command
    imports the engines it runs: the command line alone loads no adversim
    module but ``core`` and no ``hashlib``, and validating an fts trace of a
    plain protocol loads no simulation, checker, adversary or asynchronous
    engine.  Every public name of the package still resolves."""
    trace = tmp_path / "fts.jsonl"
    config = initial_configuration(PhaseKingLite(3), (1, 0, 0))
    run(config, PhaseKingLite(3), "fts", repeat(silence(1, 3)), 6).trace.write(trace)
    code = textwrap.dedent(
        """
        import sys
        import adversim.cli
        print(sorted({"dataclasses", "inspect", "hashlib"} & set(sys.modules)))
        print(sorted(m for m in sys.modules if m.startswith("adversim")))
        code = adversim.cli.main(["validate", sys.argv[1]])
        engines = ("simulations", "checking", "nondecider", "async_engine")
        print(code, sorted({f"adversim.{m}" for m in engines} & set(sys.modules)))
        [getattr(adversim, name) for name in adversim.__all__]  # AttributeError if one is missing
        """
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(trace)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['adversim', 'adversim.cli', 'adversim.core']",
        "0 []",
    ]


def _step_record(step):
    """A step's trace record as a dict, which ``_step_line`` formats
    directly: the reference it must match byte for byte."""
    outputs = {str(pid): value for pid, value in step.outputs}
    fault = getattr(step, "fault", None)  # flp steps have none
    if isinstance(fault, RoundFault):
        return {
            "round": step.round,
            "sender": step.fault.sender,
            "victims": sorted(step.fault.victims),
            "outputs": outputs,
        }
    if isinstance(fault, ReceiveFault):
        return {
            "round": step.round,
            "dropped": {str(r): s for r, s in step.fault.drops},
            "outputs": outputs,
        }
    return {
        "event": "step",
        "pid": step.pid,
        "deliver": step.deliver,
        "crash": step.crash,
        "outputs": outputs,
    }


_PIDS = st.integers(0, 15)
_ROUNDS = st.integers(1, 10**6)
_OUTPUTS = st.dictionaries(_PIDS, st.integers(0, 1)).map(lambda d: tuple(sorted(d.items())))
_STEPS = st.one_of(
    st.builds(RoundStep, _ROUNDS, st.builds(RoundFault, _PIDS, st.sets(_PIDS)), _OUTPUTS),
    st.builds(RoundStep, _ROUNDS, st.dictionaries(_PIDS, _PIDS).map(ReceiveFault), _OUTPUTS),
    st.builds(FlpStep, _PIDS, st.none() | st.integers(0, 10**6), st.booleans(), _OUTPUTS),
)


@settings(max_examples=300, deadline=None)
@given(step=_STEPS)
def test_step_line_matches_json_record(step):
    assert _step_line(step) == _dumps(_step_record(step))


def test_step_line_orders_pids_as_strings():
    step = RoundStep(round=5, fault=ReceiveFault({2: 0, 10: 3}), outputs=((2, 1), (10, 1)))
    assert _step_line(step) == '{"dropped":{"10":3,"2":0},"outputs":{"10":1,"2":1},"round":5}'


# -- validation --------------------------------------------------------------


def test_validator_flags_duplicate_round_as_multiple_senders():
    step = lambda r, sender: RoundStep(round=r, fault=RoundFault(sender, [0]), outputs=())  # noqa: E731
    trace = ExecutionTrace(
        model="fts",
        n=3,
        protocol="phase-king-lite",
        inputs=(0, 0, 0),
        steps=(step(1, 1), step(1, 2)),
    )
    report = validate_trace(trace)
    assert not report.valid
    assert any("multiple faulty senders" in p for p in report.problems)


def test_validator_flags_output_divergence():
    pk = PhaseKingLite(3)
    config = initial_configuration(pk, (1, 1, 1))
    trace = run(config, pk, "fts", (), horizon=2).trace
    # flip one recorded output bit
    step0 = trace.steps[0]
    corrupted = step0.outputs[:-1] + ((step0.outputs[-1][0], 1 - step0.outputs[-1][1]),)
    bad = ExecutionTrace(
        model=trace.model,
        n=trace.n,
        protocol=trace.protocol,
        inputs=trace.inputs,
        steps=(RoundStep(round=1, fault=step0.fault, outputs=corrupted),) + trace.steps[1:],
    )
    report = validate_trace(bad)
    assert not report.valid
    assert any("diverge" in p for p in report.problems)


def test_validator_flags_write_once_violation():
    steps = (
        RoundStep(round=1, fault=RoundFault(0, ()), outputs=((0, 1),)),
        RoundStep(round=2, fault=RoundFault(0, ()), outputs=((0, 0),)),
    )
    trace = ExecutionTrace(model="fts", n=3, protocol="constant-1", inputs=(1, 1, 1), steps=steps)
    report = validate_trace(trace)
    assert any("write-once" in p for p in report.problems)


@pytest.mark.parametrize(
    "model, protocol, step",
    [
        ("fts", "phase-king-lite", FlpStep(0)),
        ("ftr", "phase-king-lite", RoundStep(1, RoundFault(0, [1]), ())),
        ("flp", "ftr-over-flp:phase-king-lite", RoundStep(1, RoundFault(0, [1]), ())),
    ],
    ids=["flp-step-in-fts", "fts-step-in-ftr", "round-step-in-flp"],
)
def test_validator_reports_step_of_the_wrong_kind(model, protocol, step):
    trace = ExecutionTrace(model=model, n=3, protocol=protocol, inputs=(1, 0, 0), steps=(step,))
    report = validate_trace(trace)
    assert not report.valid
    assert len(report.problems) == 1 and report.problems[0].startswith("replay failed: ")


def test_validator_rejects_unknown_protocol():
    trace = ExecutionTrace(model="fts", n=3, protocol="no-such", inputs=(0, 0, 0), steps=())
    with pytest.raises(UnknownProtocolError):
        validate_trace(trace)


def test_parse_rejects_garbage():
    with pytest.raises(TraceFormatError):
        ExecutionTrace.from_jsonl("not json\n")
    with pytest.raises(TraceFormatError):
        ExecutionTrace.from_jsonl('{"model":"xxx","n":3,"protocol":"p","inputs":[0,0,0]}\n')
    with pytest.raises(TraceFormatError):
        ExecutionTrace.from_jsonl('{"model":"fts","n":3,"protocol":"p","inputs":[0,0]}\n')


@pytest.mark.parametrize("kind", ["trace", "script"])
def test_parse_errors_name_the_physical_line(tmp_path, kind):
    lines = ['{"outputs":{},"round":1,"sender":0,"victims":[]}', "", "  ", '{"round":2,"sender":0}']
    if kind == "trace":
        lines.insert(0, '{"inputs":[1,0,0],"model":"fts","n":3,"protocol":"phase-king-lite"}')
    path = tmp_path / f"{kind}.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=f"^line {len(lines)}: fts step missing 'victims'$"):
        ExecutionTrace.read(path) if kind == "trace" else read_step_script(path, "fts")


# -- self-communication absence ---------------------------------------------


class _Probe:
    """Round protocol that remembers which senders it heard from."""

    protocol_id = "probe"
    n = None

    def init(self, pid, input):
        return (pid, ())

    def message(self, internal, round):
        return b"x"

    def transition(self, internal, round, received):
        pid, seen = internal
        assert pid not in received, "engine delivered a payload to its sender"
        return (pid, seen + (tuple(received),)), None


def test_no_self_delivery_in_sync_engines():
    from adversim.sync_engine import step_fts, step_ftr
    from adversim.core import NO_DROPS, NO_FAULT

    probe = _Probe()
    config = initial_configuration(probe, (0, 1, 0, 1))
    config = step_fts(config, probe, NO_FAULT)
    config = step_ftr(config, probe, NO_DROPS)
    for q, state in enumerate(config.states):
        for seen in state.internal[1]:
            assert q not in seen
            assert len(seen) == 3


_PK = PhaseKingLite(3)
_START = initial_configuration(_PK, (0, 1, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_exhaustive(_PK, 3, 0), "depth must be >= 1"),
        (lambda: check_fuzz(_PK, 3, 0, 1, seed=0), "runs must be >= 1"),
        (lambda: check_fuzz(_PK, 3, 1, 0, seed=0), "depth must be >= 1"),
        (lambda: run(_START, _PK, "fts", (), -1), "horizon must be >= 0"),
        (lambda: run_async((0, 1, 0), SynchronizerWrapper(_PK, 3), RoundRobinScheduler(3), -1),
         "horizon must be >= 0"),
        (lambda: failure_free_decision(_START, _PK, 0), "oracle cap must be >= 1"),
        (lambda: find_initial_dependent(_PK, 1), "need n >= 2"),
        (lambda: build_nondeciding_execution(_PK, 3, 0), "rounds must be >= 1"),
    ],
    ids=["exhaustive-depth", "fuzz-runs", "fuzz-depth", "run-horizon", "run-async-horizon",
         "oracle-cap", "initial-dependent-n", "attack-rounds"],
)
def test_library_refuses_arguments_the_cli_never_passes(call, message):
    # the command line refuses these values first, so only a library call
    # reaches the library's own checks
    with pytest.raises(AdversimError) as info:
        call()
    assert type(info.value) is AdversimError and str(info.value) == message
