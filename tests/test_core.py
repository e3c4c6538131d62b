"""Core types, trace round trips, validation, and the consensus relation."""

import os
import subprocess
import sys
from itertools import repeat

import pytest
from conftest import SRC
from hypothesis import given, settings, strategies as st

from adversim.checking import CheckResult

from adversim.core import (
    AdversimError,
    ExecutionTrace,
    FlpStep,
    FtrStep,
    FtsStep,
    LocalState,
    ReceiveFault,
    RoundFault,
    TraceFormatError,
    UnknownProtocolError,
    _dumps,
    _step_line,
    check_colorless_outcome,
    initial_configuration,
    validate_trace,
)
from adversim.nondecider import DependenceWitness
from adversim.protocols import phase_king_lite
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
    pk = phase_king_lite(3)
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


# -- trace serialization -----------------------------------------------------


def test_empty_trace_round_trip_and_valid():
    trace = ExecutionTrace(model="fts", n=3, protocol="phase-king-lite", inputs=(0, 1, 0), steps=())
    text = trace.to_jsonl()
    again = ExecutionTrace.from_jsonl(text)
    assert again == trace
    assert again.to_jsonl() == text
    assert validate_trace(trace).valid  # vacuous replay


def test_engine_trace_round_trips_bit_exact(tmp_path):
    pk = phase_king_lite(3)
    config = initial_configuration(pk, (1, 0, 0))
    trace = run(config, pk, "fts", repeat(silence(2, 3)), horizon=6).trace
    path = tmp_path / "t.jsonl"
    trace.write(path)
    text = path.read_text()
    assert ExecutionTrace.read(path) == trace
    assert ExecutionTrace.from_jsonl(text).to_jsonl() == text


def test_engine_trace_validates():
    pk = phase_king_lite(3)
    config = initial_configuration(pk, (1, 0, 0))
    trace = run(config, pk, "fts", (), horizon=6).trace
    report = validate_trace(trace)
    assert report.valid, report.problems


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
            FtsStep(round=r + 1, fault=RoundFault(sender, victims), outputs=tuple(sorted(outs.items())))
        )
    trace = ExecutionTrace(
        model="fts", n=n, protocol="phase-king-lite", inputs=tuple(inputs), steps=tuple(steps)
    )
    text = trace.to_jsonl()
    assert ExecutionTrace.from_jsonl(text) == trace
    assert ExecutionTrace.from_jsonl(text).to_jsonl() == text


def test_trace_steps_are_plain_tuples():
    fault, drops = RoundFault(0, [1, 2]), ReceiveFault({1: 0})
    step = FtsStep(1, fault, ((1, 0),))
    trace = ExecutionTrace("fts", 3, "phase-king-lite", (1, 0, 1), (step,))
    config = initial_configuration(phase_king_lite(3), (1, 0, 1))
    cases = [
        (step, (1, fault, ((1, 0),))),
        (FtrStep(2, drops, ()), (2, drops, ())),
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


def test_cli_import_loads_no_dataclasses_or_inspect():
    """The records are tuples, so importing the command line pulls in
    neither ``dataclasses`` nor the ``inspect`` it imports."""
    code = "import adversim.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _step_record(step):
    """A step's trace record as a dict, which ``_step_line`` formats
    directly: the reference it must match byte for byte."""
    outputs = {str(pid): value for pid, value in step.outputs}
    if isinstance(step, FtsStep):
        return {
            "round": step.round,
            "sender": step.fault.sender,
            "victims": sorted(step.fault.victims),
            "outputs": outputs,
        }
    if isinstance(step, FtrStep):
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
    st.builds(FtsStep, _ROUNDS, st.builds(RoundFault, _PIDS, st.sets(_PIDS)), _OUTPUTS),
    st.builds(FtrStep, _ROUNDS, st.dictionaries(_PIDS, _PIDS).map(ReceiveFault), _OUTPUTS),
    st.builds(FlpStep, _PIDS, st.none() | st.integers(0, 10**6), st.booleans(), _OUTPUTS),
)


@settings(max_examples=300, deadline=None)
@given(step=_STEPS)
def test_step_line_matches_json_record(step):
    assert _step_line(step) == _dumps(_step_record(step))


def test_step_line_orders_pids_as_strings():
    step = FtrStep(round=5, fault=ReceiveFault({2: 0, 10: 3}), outputs=((2, 1), (10, 1)))
    assert _step_line(step) == '{"dropped":{"10":3,"2":0},"outputs":{"10":1,"2":1},"round":5}'


# -- validation --------------------------------------------------------------


def test_validator_flags_duplicate_round_as_multiple_senders():
    step = lambda r, sender: FtsStep(round=r, fault=RoundFault(sender, [0]), outputs=())  # noqa: E731
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
    pk = phase_king_lite(3)
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
        steps=(FtsStep(round=1, fault=step0.fault, outputs=corrupted),) + trace.steps[1:],
    )
    report = validate_trace(bad)
    assert not report.valid
    assert any("diverge" in p for p in report.problems)


def test_validator_flags_write_once_violation():
    steps = (
        FtsStep(round=1, fault=RoundFault(0, ()), outputs=((0, 1),)),
        FtsStep(round=2, fault=RoundFault(0, ()), outputs=((0, 0),)),
    )
    trace = ExecutionTrace(model="fts", n=3, protocol="constant-1", inputs=(1, 1, 1), steps=steps)
    report = validate_trace(trace)
    assert any("write-once" in p for p in report.problems)


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
