"""Step semantics, delivery counts, fault enumeration, adversaries, and the
one-fault step and distinct-children expansion against the per-fault round
rule they replaced."""

import random
from itertools import islice, repeat

import pytest
from conftest import MisdeclaredTable, ReducedRound, TableProtocol, TaggedTable, enumerate_faults
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
    shown_round,
)
from adversim.protocols import PhaseKingLite, get_protocol
from adversim.sync_engine import (
    distinct_children,
    random_faults,
    run,
    silence,
    step_fts,
    step_ftr,
)
from test_checking import level_order_check_exhaustive


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
    pk = PhaseKingLite(3)
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
    pk = PhaseKingLite(n)
    inputs = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    sender = data.draw(st.integers(0, n - 1))
    victims = data.draw(st.sets(st.integers(0, n - 1)))
    fault = RoundFault(sender, victims)
    config = initial_configuration(pk, inputs)
    assert step_ftr(config, pk, ReceiveFault({q: fault.sender for q in fault.victims})) == step_fts(config, pk, fault)


def test_step_functions_pure():
    pk = PhaseKingLite(3)
    config = initial_configuration(pk, (1, 0, 0))
    fault = RoundFault(1, [0])
    assert step_fts(config, pk, fault) == step_fts(config, pk, fault)


# -- runner -------------------------------------------------------------------


def test_run_horizon_zero_header_only():
    pk = PhaseKingLite(3)
    result = run(initial_configuration(pk, (0, 1, 0)), pk, "fts", (), horizon=0)
    assert result.trace.steps == ()
    assert result.trace.to_jsonl().count("\n") == 1


def test_run_unanimous_zero_decides_fast():
    pk = PhaseKingLite(3)
    result = run(initial_configuration(pk, (0, 0, 0)), pk, "fts", (), horizon=4)
    outs = result.final_config.outputs()
    assert outs == {0: 0, 1: 0, 2: 0}


def test_run_silent_policy_every_fault_full_silence():
    pk = PhaseKingLite(3)
    result = run(initial_configuration(pk, (1, 0, 0)), pk, "fts", repeat(silence(1, 3)), horizon=8)
    for step in result.trace.steps:
        assert step.fault == RoundFault(1, [0, 2])


def test_run_never_stops_early():
    pk = PhaseKingLite(3)
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
    pk = PhaseKingLite(3)
    result = run(initial_configuration(pk, (1, 0, 0)), pk, "fts", script, horizon=3)
    faults = [s.fault for s in result.trace.steps]
    assert faults[0] == RoundFault(0, [1])
    assert faults[1] == RoundFault(2, [0, 1])
    assert faults[2] == NO_FAULT  # script exhausted


def test_run_takes_only_its_models_fault_kind():
    pk = PhaseKingLite(3)
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
    pk = PhaseKingLite(4)
    a = run(initial_configuration(pk, (1, 0, 1, 0)), pk, "fts", repeat(silence(3, 4)), horizon=12)
    b = run(initial_configuration(pk, (1, 0, 1, 0)), pk, "fts", repeat(silence(3, 4)), horizon=12)
    assert a.trace.to_jsonl() == b.trace.to_jsonl()


# -- the round kernel against the per-fault round rule --------------------------


def reference_round(config, protocol, dropped):
    """The round rule before the shared kernel: every process broadcasts, then
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


def reference_distinct_children(config, protocol, model, restricted=False):
    """Per-fault stepping over ``enumerate_faults``, keeping the first fault
    that builds each child; lazy, so an error surfaces at its fault."""
    seen = set()
    for fault in enumerate_faults(model, config.n, restricted):
        child = reference_step(config, protocol, fault)
        if child not in seen:
            seen.add(child)
            yield fault, child


EXPANSIONS = [("fts", False), ("fts", True), ("ftr", False)]


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


def _reached(protocol, n, seed):
    """The configurations of one random fts run and one random ftr run of
    three rounds each, from seeded random inputs."""
    rng = random.Random(seed)
    configs = []
    for model in ("fts", "ftr"):
        start = initial_configuration(protocol, tuple(rng.randrange(2) for _ in range(n)))
        drawn = random_faults(n, rng, model, False)
        configs += run(start, protocol, model, drawn, 3, keep_configs=True).configs
    return configs


@pytest.mark.parametrize("protocol_id", ["phase-king-lite", "naive-majority", "constant-0",
                                         "constant-1", "inbox-recorder", "alternating-output"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_successors_match_per_fault_rounds(protocol_id, n):
    # Each distinct child once, at the first canonical fault that builds it.
    stubs = {"inbox-recorder": InboxRecorder, "alternating-output": AlternatingOutput}
    protocol = stubs[protocol_id]() if protocol_id in stubs else get_protocol(protocol_id, n)
    table = {}  # one table for every configuration and expansion
    for config in _reached(protocol, n, f"successors-{protocol_id}-{n}"):
        for model, restricted in EXPANSIONS:
            got = list(distinct_children(config, protocol, model, restricted, table))
            want = list(reference_distinct_children(config, protocol, model, restricted))
            assert got == want, (config, model, restricted)


def test_table_shares_transitions_only_where_they_read_alike():
    # Random table protocols, half of which read the senders they missed,
    # their own pid among them: one table for every configuration, fault
    # and model must give each receiver and missed sender its own next state.
    n = 3
    for seed in range(40):
        protocol = TableProtocol(n, seed)
        table = {}
        for config in _reached(protocol, n, f"table-{n}-{seed}"):
            for model, step in (("fts", step_fts), ("ftr", step_ftr)):
                for fault in enumerate_faults(model, n):
                    assert step(config, protocol, fault, table) == \
                        reference_step(config, protocol, fault), (seed, config, fault)
            for model, restricted in EXPANSIONS:
                got = list(distinct_children(config, protocol, model, restricted, table))
                want = reference_distinct_children(config, protocol, model, restricted)
                assert got == list(want), (seed, config, model, restricted)


@pytest.mark.parametrize("protocol_id", ["phase-king-lite", "naive-majority", "constant-0",
                                         "constant-1"])
@pytest.mark.parametrize("n", [3, 4])
def test_step_is_the_one_fault_successor(protocol_id, n):
    protocol = get_protocol(protocol_id, n)
    rng = random.Random(f"one-fault-{protocol_id}-{n}")
    configs = []
    for _ in range(2):
        inputs = tuple(rng.randrange(2) for _ in range(n))
        drawn = random_faults(n, rng, "fts", False)
        start = initial_configuration(protocol, inputs)
        configs += run(start, protocol, "fts", drawn, 3, keep_configs=True).configs
    # no table; a table per model; one table for both models
    both = {}
    for model, step in (("fts", step_fts), ("ftr", step_ftr)):
        own = {}
        for config in configs:
            for fault in enumerate_faults(model, n):
                want = reference_step(config, protocol, fault)
                assert step(config, protocol, fault) == want
                assert step(config, protocol, fault, own) == want
                assert step(config, protocol, fault, both) == want


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
    # The error is the one the first fault, in level order, that drops the
    # sender meets: a fault of the first level, so it comes from round 1.
    protocol = MissRaises(sender=2)
    errors = []
    for check, kwargs in (
        (check_exhaustive, {}),
        (level_order_check_exhaustive, {"step": reference_step}),
    ):
        with pytest.raises(EngineError) as info:
            check(protocol, 3, 3, model=model, **kwargs)
        errors.append((str(info.value), info.value.round, info.value.pid))
    assert errors[0] == errors[1]
    assert errors[0][1] == 1


@pytest.mark.parametrize("model", ["fts", "ftr"])
def test_exhaustive_stops_at_a_violation_before_a_failing_fault(model):
    # Missing process 0 (a validity violation from all-0 inputs) comes
    # before missing process 2 in fault order, so no error may surface.
    protocol = MissRaises(sender=2, writes_on=0)
    result = check_exhaustive(protocol, 3, 3, model=model)
    reference = level_order_check_exhaustive(protocol, 3, 3, model=model, step=reference_step)
    assert result.violation.kind == "validity"
    assert result.violation.round == 1
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
    for model, restricted in EXPANSIONS:
        configs = [initial_configuration(protocol, (0,) * n)]
        for _ in range(3):
            config = configs[-1]
            children = list(distinct_children(config, protocol, model, restricted))
            want = reference_distinct_children(config, protocol, model, restricted)
            assert children == list(want)
            configs.append(children[-1][1])
        outputs = [c.outputs() for c in configs[1:]]
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("n", [3, 4])
def test_successors_raise_an_invalid_output_at_the_reference_child(n):
    protocol = InvalidFromRoundTwo(n)
    start = initial_configuration(protocol, (0,) * n)
    raised = clean = 0
    for model, restricted in EXPANSIONS:
        for _, config in distinct_children(start, protocol, model, restricted):
            got = _children_until_error(distinct_children(config, protocol, model, restricted))
            want = _children_until_error(
                reference_distinct_children(config, protocol, model, restricted)
            )
            assert got == want
            if want[1] is None:
                clean += 1
            else:
                assert want[1] == (AdversimError, "output must be 0 or 1, got 2")
                raised += len(want[0]) > 0
    assert raised and clean


# -- the round a protocol sees ------------------------------------------------------


def test_shown_round_is_the_round_modulo_the_declared_period():
    pk = PhaseKingLite(3)  # period 6
    assert [shown_round(pk, r) for r in range(1, 14)] == [1, 2, 3, 4, 5, 6] * 2 + [1]
    assert [shown_round(get_protocol("naive-majority", 3), r) for r in (1, 7, 100)] == [1, 7, 100]
    assert shown_round(CountingProtocol(), 9) == 9  # duck-typed: no period attribute


@pytest.mark.parametrize("model", ["fts", "ftr"])
def test_a_declared_period_is_the_round_the_protocol_sees(model):
    # A misdeclared table reads the round modulo 3 or 4 but declares period
    # 2, and a tagged one broadcasts it too.  Shown the round modulo 2, each
    # runs exactly as the same table behind a wrapper that reduces the round
    # itself: state for state, with the true round in every configuration
    # and trace step.  One expansion table per protocol serves every round,
    # so transitions computed in one period are reused in the next.
    rng = random.Random(f"shown-round-{model}")
    for seed in range(40):
        n = 3 + seed % 2
        for kind in (MisdeclaredTable, TaggedTable):
            protocol, reference = kind(n, seed), ReducedRound(kind(n, seed))
            inputs = tuple(rng.randrange(2) for _ in range(n))
            faults = list(islice(random_faults(n, rng, model, False), 9))
            got = run(initial_configuration(protocol, inputs), protocol, model, faults, 9,
                      keep_configs=True)
            want = run(initial_configuration(reference, inputs), reference, model, faults, 9,
                       keep_configs=True)
            assert got == want, (seed, kind)
            assert [step.round for step in got.trace.steps] == list(range(1, 10))
            table = {}
            for config in got.configs[:5]:
                children = distinct_children(config, protocol, model, False, table)
                assert list(children) == list(reference_distinct_children(
                    config, reference, model)), (seed, kind, config)
