"""Protocol behaviour: the agreement target and the negative controls."""

import itertools

import pytest

from adversim.core import UnknownProtocolError, initial_configuration
from adversim.protocols import constant, get_protocol, naive_majority, phase_king_lite, registered_protocols
from adversim.sync_engine import (
    NoFaultPolicy,
    ScriptedPolicy,
    SilentPolicy,
    enumerate_faults,
    run,
    step_fts,
)


def _all_inputs(n):
    return itertools.product((0, 1), repeat=n)


def test_registry_contents():
    assert registered_protocols() == [
        "constant-0",
        "constant-1",
        "naive-majority",
        "phase-king-lite",
    ]
    assert get_protocol("phase-king-lite", 3).protocol_id == "phase-king-lite"
    with pytest.raises(UnknownProtocolError):
        get_protocol("nope", 3)


def test_phase_king_requires_three_processes():
    with pytest.raises(ValueError):
        phase_king_lite(2)


# -- phase-king-lite ----------------------------------------------------------


def test_unanimous_inputs_decide_under_any_round1_fault():
    pk = phase_king_lite(3)
    for b in (0, 1):
        for fault in enumerate_faults("fts", 3):
            result = run(
                initial_configuration(pk, (b, b, b)), pk, ScriptedPolicy([fault]), horizon=2
            )
            assert result.final_config.outputs() == {0: b, 1: b, 2: b}


def test_failure_free_mixed_decides_round_three():
    pk = phase_king_lite(3)
    for inputs in _all_inputs(3):
        if len(set(inputs)) == 1:
            continue
        result = run(initial_configuration(pk, inputs), pk, NoFaultPolicy(), horizon=6)
        decide_rounds = [s.round for s in result.trace.steps if s.outputs]
        assert decide_rounds == [3], (inputs, decide_rounds)
        values = set(result.final_config.outputs().values())
        assert len(values) == 1


def test_silent_runs_decide_within_six_rounds():
    pk = phase_king_lite(3)
    for inputs in _all_inputs(3):
        for p in range(3):
            result = run(initial_configuration(pk, inputs), pk, SilentPolicy(p, 3), horizon=6)
            config = result.final_config
            assert config.all_decided(), (inputs, p)
            assert len(set(config.outputs().values())) == 1


def test_decision_forces_unanimous_preferences_same_round():
    """If anyone outputs b in round r, every preference is b at end of r, and
    stays b under every subsequent fault."""
    pk = phase_king_lite(3)
    faults = enumerate_faults("fts", 3)
    for inputs in _all_inputs(3):
        for f1, f2 in itertools.product(faults, repeat=2):
            config = initial_configuration(pk, inputs)
            for fault in (f1, f2):
                before = config.outputs()
                config = step_fts(config, pk, fault)
                wrote = {q: v for q, v in config.outputs().items() if q not in before}
                if wrote:
                    b = next(iter(wrote.values()))
                    prefs = [s.internal[0] for s in config.states]
                    assert prefs == [b, b, b], (inputs, fault, wrote)


def test_unanimity_is_preserved_by_every_fault():
    pk = phase_king_lite(3)
    for b in (0, 1):
        config = initial_configuration(pk, (b, b, b))
        for fault in enumerate_faults("fts", 3):
            nxt = step_fts(config, pk, fault)
            assert all(s.internal[0] == b for s in nxt.states)


# -- naive-majority -----------------------------------------------------------


def test_naive_majority_failure_free():
    nm = naive_majority(3)
    result = run(initial_configuration(nm, (1, 1, 0)), nm, NoFaultPolicy(), horizon=2)
    assert result.final_config.outputs() == {0: 1, 1: 1, 2: 1}


def test_naive_majority_round1_fault_scan_finds_disagreement():
    nm = naive_majority(3)
    violations = []
    for inputs in _all_inputs(3):
        for fault in enumerate_faults("fts", 3):
            config = step_fts(initial_configuration(nm, inputs), nm, fault)
            if len(set(config.outputs().values())) > 1:
                violations.append((inputs, fault))
    assert violations, "exhaustive round-1 scan must find a disagreement"


def test_naive_majority_unanimous_is_safe():
    nm = naive_majority(3)
    for b in (0, 1):
        for fault in enumerate_faults("fts", 3):
            config = step_fts(initial_configuration(nm, (b, b, b)), nm, fault)
            assert set(config.outputs().values()) == {b}


# -- constants ----------------------------------------------------------------


def test_constant_outputs_its_value():
    c1 = constant(1)
    result = run(initial_configuration(c1, (0, 0, 0)), c1, NoFaultPolicy(), horizon=2)
    assert result.final_config.outputs() == {0: 1, 1: 1, 2: 1}


def test_constant_violates_validity_on_opposite_unanimity():
    from adversim.core import check_colorless_outcome

    c0 = constant(0)
    result = run(initial_configuration(c0, (1, 1, 1)), c0, NoFaultPolicy(), horizon=1)
    outcome = check_colorless_outcome({1}, set(result.final_config.outputs().values()))
    assert not outcome.ok and outcome.violation == "validity"


def test_constant_never_dependent():
    from adversim.nondecider import is_p_dependent

    c0 = constant(0)
    for inputs in _all_inputs(3):
        config = initial_configuration(c0, inputs)
        for p in range(3):
            assert is_p_dependent(config, p, c0, cap=5) is None


# -- declared period ---------------------------------------------------------------


def _inboxes(n):
    """Every inbox any receiver can get: any subset of the other processes,
    each sending either payload, in ascending sender order."""
    return {
        tuple(zip(senders, payloads))
        for q in range(n)
        for k in range(n)
        for senders in itertools.combinations([s for s in range(n) if s != q], k)
        for payloads in itertools.product((b"0", b"1"), repeat=k)
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_phase_king_lite_repeats_with_its_declared_period(n):
    pk = phase_king_lite(n)
    assert pk.period == 2 * n
    inboxes = [dict(items) for items in _inboxes(n)]
    for internal in itertools.product((0, 1), (False, True)):
        for r in range(1, 4 * n + 1):
            later = r + pk.period
            assert pk.message(internal, r) == pk.message(internal, later)
            for inbox in inboxes:
                assert pk.transition(internal, r, inbox) == pk.transition(internal, later, inbox)


@pytest.mark.parametrize(
    "protocol_id",
    ["naive-majority", "constant-0", "constant-1", "fts-over-ftr:phase-king-lite",
     "flp-over-ftr:phase-king-lite"],
)
def test_other_protocols_and_wrappers_declare_no_period(protocol_id):
    assert get_protocol(protocol_id, 3).period is None
