"""Step semantics, delivery counts, fault enumeration, adversaries, and the
fan-out round primitive against the per-fault round rule it replaced."""

import random
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from adversim.checking import check_exhaustive
from adversim.core import (
    AdversimError,
    Configuration,
    EngineError,
    LocalState,
    NO_DROPS,
    NO_FAULT,
    ReceiveFault,
    RoundFault,
    initial_configuration,
    read_step_script,
)
from adversim.protocols import get_protocol, phase_king_lite
from adversim.sync_engine import (
    enumerate_faults,
    random_faults,
    run,
    silence,
    step_fts,
    step_ftr,
    successors,
)
from test_checking import reference_check_exhaustive


class CountingProtocol:
    """Records how many payloads each process received per round."""

    protocol_id = "counting"
    n = None

    def init(self, pid, input):
        return ()

    def message(self, internal, round):
        return b"m"

    def transition(self, internal, round, received):
        return internal + (tuple(sorted(received)),), None


def _counts(config, pid):
    return [len(r) for r in config.states[pid].internal]


def test_fts_empty_victims_full_delivery():
    proto = CountingProtocol()
    config = step_fts(initial_configuration(proto, (0, 0, 0)), proto, NO_FAULT)
    assert all(_counts(config, q) == [2] for q in range(3))


def test_fts_full_silence_nobody_hears_sender():
    proto = CountingProtocol()
    config = step_fts(
        initial_configuration(proto, (0, 0, 0, 0)), proto, RoundFault(1, [0, 2, 3])
    )
    for q in range(4):
        senders = config.states[q].internal[0]
        assert 1 not in senders
        assert len(senders) == (3 if q == 1 else 2)  # the silenced one still hears all


def test_fts_single_victim_counts():
    proto = CountingProtocol()
    config = step_fts(initial_configuration(proto, (0, 0, 0)), proto, RoundFault(0, [2]))
    assert _counts(config, 2) == [1]  # n-2
    assert _counts(config, 0) == [2]
    assert _counts(config, 1) == [2]


def test_ftr_empty_full_delivery():
    proto = CountingProtocol()
    config = step_ftr(initial_configuration(proto, (0, 0, 0)), proto, NO_DROPS)
    assert all(_counts(config, q) == [2] for q in range(3))


def test_ftr_distinct_drops_inexpressible_as_fts():
    # every receiver misses a different sender: legal here, and the union of
    # missed senders has size > 1 so no single fail-to-send fault matches
    fault = ReceiveFault({0: 1, 1: 2, 2: 0})
    fault.validate(3)
    missed = set(fault.mapping.values())
    assert len(missed) > 1


def test_ftr_all_drop_p_equals_fts_full_silence():
    pk = phase_king_lite(3)
    config = initial_configuration(pk, (1, 0, 1))
    via_ftr = step_ftr(config, pk, ReceiveFault({0: 2, 1: 2}))
    via_fts = step_fts(config, pk, RoundFault(2, [0, 1]))
    assert via_ftr == via_fts


def test_delivery_floor_ftr():
    proto = CountingProtocol()
    for fault in enumerate_faults("ftr", 3):
        config = step_ftr(initial_configuration(proto, (0, 0, 0)), proto, fault)
        for q in range(3):
            assert _counts(config, q)[0] >= 1  # n-2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fts_embeds_in_ftr(data):
    n = data.draw(st.integers(3, 5))
    pk = phase_king_lite(n)
    inputs = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    sender = data.draw(st.integers(0, n - 1))
    victims = data.draw(st.sets(st.integers(0, n - 1)))
    fault = RoundFault(sender, victims)
    config = initial_configuration(pk, inputs)
    assert step_ftr(config, pk, ReceiveFault({q: fault.sender for q in fault.victims})) == step_fts(config, pk, fault)


def test_step_functions_pure():
    pk = phase_king_lite(3)
    config = initial_configuration(pk, (1, 0, 0))
    fault = RoundFault(1, [0])
    assert step_fts(config, pk, fault) == step_fts(config, pk, fault)


# -- runner -------------------------------------------------------------------


def test_run_horizon_zero_header_only():
    pk = phase_king_lite(3)
    result = run(initial_configuration(pk, (0, 1, 0)), pk, "fts", (), horizon=0)
    assert result.trace.steps == ()
    assert result.trace.to_jsonl().count("\n") == 1


def test_run_unanimous_zero_decides_fast():
    pk = phase_king_lite(3)
    result = run(initial_configuration(pk, (0, 0, 0)), pk, "fts", (), horizon=4)
    outs = result.final_config.outputs()
    assert outs == {0: 0, 1: 0, 2: 0}


def test_run_silent_policy_every_fault_full_silence():
    pk = phase_king_lite(3)
    result = run(initial_configuration(pk, (1, 0, 0)), pk, "fts", repeat(silence(1, 3)), horizon=8)
    for step in result.trace.steps:
        assert step.fault == RoundFault(1, [0, 2])


def test_run_never_stops_early():
    pk = phase_king_lite(3)
    result = run(initial_configuration(pk, (0, 0, 0)), pk, "fts", (), horizon=10)
    assert len(result.trace.steps) == 10  # decided at round 1, still runs on


def test_scripted_policy_file_round_trip(tmp_path):
    import json

    path = tmp_path / "script.jsonl"
    records = [
        {"round": 1, "sender": 0, "victims": [1], "outputs": {}},
        {"round": 2, "sender": 2, "victims": [0, 1], "outputs": {}},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    script = [step.fault for step in read_step_script(path, "fts")]
    pk = phase_king_lite(3)
    result = run(initial_configuration(pk, (1, 0, 0)), pk, "fts", script, horizon=3)
    faults = [s.fault for s in result.trace.steps]
    assert faults[0] == RoundFault(0, [1])
    assert faults[1] == RoundFault(2, [0, 1])
    assert faults[2] == NO_FAULT  # script exhausted


def test_run_takes_only_its_models_fault_kind():
    pk = phase_king_lite(3)
    config = initial_configuration(pk, (1, 0, 0))
    with pytest.raises(AdversimError, match="fts runs take RoundFault faults"):
        run(config, pk, "fts", [ReceiveFault({0: 1})], horizon=1)
    with pytest.raises(AdversimError, match="ftr runs take ReceiveFault faults"):
        run(config, pk, "ftr", [RoundFault(0, [1])], horizon=1)
    with pytest.raises(AdversimError, match="unknown synchronous model 'flp'"):
        run(config, pk, "flp", (), horizon=1)
    result = run(config, pk, "ftr", [ReceiveFault({0: 1})], horizon=3)
    assert [s.fault for s in result.trace.steps] == [ReceiveFault({0: 1}), NO_DROPS, NO_DROPS]


def test_random_faults_fail_closed_when_called():
    with pytest.raises(AdversimError, match="restricted mode"):
        random_faults(3, random.Random(0), "ftr", True)


# -- enumeration --------------------------------------------------------------


def test_enumerate_fts_n3_counts():
    faults = enumerate_faults("fts", 3)
    assert len(faults) == 12
    assert len(set(faults)) == 12


def test_enumerate_fts_n3_restricted_counts():
    faults = enumerate_faults("fts", 3, restricted=True)
    assert len(faults) == 9
    assert all(len(f.victims) <= 1 for f in faults)  # n-2 = 1


def test_enumerate_ftr_n3_counts():
    faults = enumerate_faults("ftr", 3)
    assert len(faults) == 27
    assert len(set(faults)) == 27


def test_enumerate_ftr_rejects_restricted():
    with pytest.raises(AdversimError):
        enumerate_faults("ftr", 3, restricted=True)


def test_enumerate_fts_general_count():
    for n in (4, 5):
        assert len(enumerate_faults("fts", n)) == n * 2 ** (n - 1)


def test_random_policy_restricted_never_full_silence():
    faults = random_faults(3, random.Random(9), "fts", True)
    for _ in range(200):
        fault = next(faults)
        assert len(fault.victims) <= 1


def test_protocol_failure_becomes_engine_error():
    from adversim.core import EngineError

    class Broken:
        protocol_id = "broken"
        n = None

        def init(self, pid, input):
            return None

        def message(self, internal, round):
            return b""

        def transition(self, internal, round, received):
            raise ValueError("malformed payload")

    broken = Broken()
    with pytest.raises(EngineError) as info:
        step_fts(initial_configuration(broken, (0, 0, 0)), broken, NO_FAULT)
    assert info.value.round == 1 and info.value.pid == 0


def test_run_deterministic_byte_identical():
    pk = phase_king_lite(4)
    a = run(initial_configuration(pk, (1, 0, 1, 0)), pk, "fts", repeat(silence(3, 4)), horizon=12)
    b = run(initial_configuration(pk, (1, 0, 1, 0)), pk, "fts", repeat(silence(3, 4)), horizon=12)
    assert a.trace.to_jsonl() == b.trace.to_jsonl()


# -- fan-out primitive against the per-fault round rule ------------------------


def reference_round(config, protocol, dropped):
    """The round rule before ``successors``: every process broadcasts, then
    each receiver gets a fresh inbox of every other payload, in ascending
    sender order, except the one it drops."""
    round = config.round
    payloads = []
    for p, state in enumerate(config.states):
        try:
            payloads.append((p, protocol.message(state.internal, round)))
        except Exception as exc:
            raise EngineError(f"message() failed: {exc}", round=round, pid=p) from exc
    new_states = []
    for q, state in enumerate(config.states):
        miss = dropped.get(q)
        received = {s: m for s, m in payloads if s != q and s != miss}
        try:
            internal, out = protocol.transition(state.internal, round, received)
        except Exception as exc:
            raise EngineError(f"transition() failed: {exc}", round=round, pid=q) from exc
        new_states.append(LocalState(state.input, internal, state.output).write(out))
    return Configuration(round=round + 1, states=tuple(new_states))


def reference_step(config, protocol, fault):
    fault.validate(config.n)
    return reference_round(config, protocol, fault.mapping)


class InboxRecorder:
    """Keeps every inbox it receives, in delivery order."""

    protocol_id = "inbox-recorder"
    n = None

    def init(self, pid, input):
        return (pid,)

    def message(self, internal, round):
        return (internal[0], round)

    def transition(self, internal, round, received):
        return internal + (tuple(received.items()),), None


@pytest.mark.parametrize("protocol_id", ["phase-king-lite", "naive-majority", "inbox-recorder"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_successors_match_per_fault_rounds(protocol_id, n):
    if protocol_id == "inbox-recorder":
        protocol = InboxRecorder()
    else:
        protocol = get_protocol(protocol_id, n)
    rng = random.Random(f"successors-{protocol_id}-{n}")
    inputs = tuple(rng.randrange(2) for _ in range(n))
    drawn = random_faults(n, rng, "fts", False)
    reached = run(initial_configuration(protocol, inputs), protocol, "fts", drawn, 3, keep_configs=True)
    fault_lists = [
        enumerate_faults("fts", n),
        enumerate_faults("fts", n, restricted=True),
        enumerate_faults("ftr", n),
    ]
    for config in reached.configs:
        for faults in fault_lists:
            children = list(successors(config, protocol, [f.mapping for f in faults]))
            assert children == [reference_round(config, protocol, f.mapping) for f in faults]


class MissRaises:
    """Fails in transition() exactly when its receiver misses ``sender``.
    With ``writes_on``, it writes 1 when its receiver misses that sender."""

    protocol_id = "miss-raises"
    n = None

    def __init__(self, sender, writes_on=None):
        self.sender = sender
        self.writes_on = writes_on

    def init(self, pid, input):
        return pid

    def message(self, internal, round):
        return internal

    def transition(self, internal, round, received):
        if internal != self.sender and self.sender not in received:
            raise ValueError(f"missed process {self.sender}")
        wrote = self.writes_on is not None and self.writes_on not in received
        return internal, (1 if wrote and internal != self.writes_on else None)


@pytest.mark.parametrize("model", ["fts", "ftr"])
def test_exhaustive_raises_the_first_per_fault_engine_error(model):
    # The first failing round is the first fault that drops the sender at
    # the bottom of the first branch; computing children eagerly would
    # fail at round 1 instead.
    protocol = MissRaises(sender=2)
    errors = []
    for check, kwargs in (
        (check_exhaustive, {}),
        (reference_check_exhaustive, {"step": reference_step}),
    ):
        with pytest.raises(EngineError) as info:
            check(protocol, 3, 3, model=model, **kwargs)
        errors.append((str(info.value), info.value.round, info.value.pid))
    assert errors[0] == errors[1]
    assert errors[0][1] == 3


@pytest.mark.parametrize("model", ["fts", "ftr"])
def test_exhaustive_stops_at_a_violation_before_a_failing_fault(model):
    # Missing process 0 (a validity violation from all-0 inputs) comes
    # before missing process 2 in fault order, so no error may surface.
    protocol = MissRaises(sender=2, writes_on=0)
    result = check_exhaustive(protocol, 3, 3, model=model)
    reference = reference_check_exhaustive(protocol, 3, 3, model=model, step=reference_step)
    assert result.violation.kind == "validity"
    assert result.violation.record() == reference.violation.record()
    assert result.violation.trace.to_jsonl() == reference.violation.trace.to_jsonl()


# -- write-once register through the kernel -------------------------------------


class AlternatingOutput:
    """Outputs the parity of the round plus the inbox size, every round, so a
    process's output flips from round to round and between children."""

    protocol_id = "alternating-output"
    n = None

    def init(self, pid, input):
        return pid

    def message(self, internal, round):
        return internal

    def transition(self, internal, round, received):
        return internal, (round + len(received)) % 2


class InvalidFromRoundTwo:
    """Outputs 1 at round 1 when its receiver misses a payload, and the
    invalid 2 from round 2 on when it does: only a receiver whose register
    is still empty then raises."""

    protocol_id = "invalid-from-round-two"

    def __init__(self, n):
        self.n = n

    def init(self, pid, input):
        return pid

    def message(self, internal, round):
        return internal

    def transition(self, internal, round, received):
        if len(received) == self.n - 1:
            return internal, None
        return internal, (1 if round == 1 else 2)


def _children_until_error(children):
    """The children yielded before the first AdversimError, and that error."""
    built = []
    try:
        for child in children:
            built.append(child)
    except AdversimError as exc:
        return built, (type(exc), str(exc))
    return built, None


@pytest.mark.parametrize("n", [3, 4])
def test_successors_keep_the_first_output_of_an_alternating_protocol(n):
    protocol = AlternatingOutput()
    maps = [f.mapping for f in enumerate_faults("fts", n) + enumerate_faults("ftr", n)]
    configs = [initial_configuration(protocol, (0,) * n)]
    for _ in range(3):
        config = configs[-1]
        children = list(successors(config, protocol, maps))
        assert children == [reference_round(config, protocol, m) for m in maps]
        configs.append(children[-1])
    outputs = [c.outputs() for c in configs[1:]]
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("n", [3, 4])
def test_successors_raise_an_invalid_output_at_the_reference_child(n):
    protocol = InvalidFromRoundTwo(n)
    maps = [f.mapping for f in enumerate_faults("fts", n) + enumerate_faults("ftr", n)]
    start = initial_configuration(protocol, (0,) * n)
    raised = clean = 0
    for config in successors(start, protocol, maps):
        got = _children_until_error(successors(config, protocol, maps))
        want = _children_until_error(reference_round(config, protocol, m) for m in maps)
        assert got == want
        if want[1] is None:
            clean += 1
        else:
            assert want[1] == (AdversimError, "output must be 0 or 1, got 2")
            raised += len(want[0]) > 0
    assert raised and clean
