"""Protocol behaviour: the agreement target and the negative controls."""

import itertools

import pytest
from conftest import enumerate_faults, is_p_dependent

from adversim.core import UnknownProtocolError, initial_configuration
from adversim.protocols import (
    Constant,
    NaiveMajority,
    PhaseKingLite,
    get_protocol,
    registered_protocols,
)
from adversim.sync_engine import run, silence, step_fts


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
        PhaseKingLite(2)


# -- phase-king-lite ----------------------------------------------------------


def test_unanimous_inputs_decide_under_any_round1_fault():
    pk = PhaseKingLite(3)
    for b in (0, 1):
        for fault in enumerate_faults("fts", 3):
            result = run(
                initial_configuration(pk, (b, b, b)), pk, "fts", [fault], horizon=2
            )
            assert result.final_config.outputs() == {0: b, 1: b, 2: b}


def test_failure_free_mixed_decides_round_three():
    pk = PhaseKingLite(3)
    for inputs in _all_inputs(3):
        if len(set(inputs)) == 1:
            continue
        result = run(initial_configuration(pk, inputs), pk, "fts", (), horizon=6)
        decide_rounds = [s.round for s in result.trace.steps if s.outputs]
        assert decide_rounds == [3], (inputs, decide_rounds)
        values = set(result.final_config.outputs().values())
        assert len(values) == 1


def test_silent_runs_decide_within_six_rounds():
    pk = PhaseKingLite(3)
    for inputs in _all_inputs(3):
        for p in range(3):
            silenced = itertools.repeat(silence(p, 3))
            result = run(initial_configuration(pk, inputs), pk, "fts", silenced, horizon=6)
            config = result.final_config
            assert config.all_decided(), (inputs, p)
            assert len(set(config.outputs().values())) == 1


def test_decision_forces_unanimous_preferences_same_round():
    """If anyone outputs b in round r, every preference is b at end of r, and
    stays b under every subsequent fault."""
    pk = PhaseKingLite(3)
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
    pk = PhaseKingLite(3)
    for b in (0, 1):
        config = initial_configuration(pk, (b, b, b))
        for fault in enumerate_faults("fts", 3):
            nxt = step_fts(config, pk, fault)
            assert all(s.internal[0] == b for s in nxt.states)


# -- naive-majority -----------------------------------------------------------


def test_naive_majority_failure_free():
    nm = NaiveMajority(3)
    result = run(initial_configuration(nm, (1, 1, 0)), nm, "fts", (), horizon=2)
    assert result.final_config.outputs() == {0: 1, 1: 1, 2: 1}


def test_naive_majority_round1_fault_scan_finds_disagreement():
    nm = NaiveMajority(3)
    violations = []
    for inputs in _all_inputs(3):
        for fault in enumerate_faults("fts", 3):
            config = step_fts(initial_configuration(nm, inputs), nm, fault)
            if len(set(config.outputs().values())) > 1:
                violations.append((inputs, fault))
    assert violations, "exhaustive round-1 scan must find a disagreement"


def test_naive_majority_unanimous_is_safe():
    nm = NaiveMajority(3)
    for b in (0, 1):
        for fault in enumerate_faults("fts", 3):
            config = step_fts(initial_configuration(nm, (b, b, b)), nm, fault)
            assert set(config.outputs().values()) == {b}


# -- constants ----------------------------------------------------------------


def test_constant_outputs_its_value():
    c1 = Constant(1)
    result = run(initial_configuration(c1, (0, 0, 0)), c1, "fts", (), horizon=2)
    assert result.final_config.outputs() == {0: 1, 1: 1, 2: 1}


def test_constant_violates_validity_on_opposite_unanimity():
    from adversim.core import check_colorless_outcome

    c0 = Constant(0)
    result = run(initial_configuration(c0, (1, 1, 1)), c0, "fts", (), horizon=1)
    outcome = check_colorless_outcome({1}, set(result.final_config.outputs().values()))
    assert not outcome.ok and outcome.violation == "validity"


def test_constant_never_dependent():
    c0 = Constant(0)
    for inputs in _all_inputs(3):
        config = initial_configuration(c0, inputs)
        for p in range(3):
            assert is_p_dependent(config, p, c0, cap=5) is None


# -- declared period ---------------------------------------------------------------


def _inboxes(n, payloads=(b"0", b"1")):
    """Every inbox any receiver can get: any subset of the other processes,
    each sending any of ``payloads``, in ascending sender order."""
    return {
        tuple(zip(senders, sent))
        for q in range(n)
        for k in range(n)
        for senders in itertools.combinations([s for s in range(n) if s != q], k)
        for sent in itertools.product(payloads, repeat=k)
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_phase_king_lite_repeats_with_its_declared_period(n):
    pk = PhaseKingLite(n)
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
    ["naive-majority", "constant-0", "constant-1", "flp-over-ftr:phase-king-lite"],
)
def test_other_protocols_and_wrappers_declare_no_period(protocol_id):
    assert get_protocol(protocol_id, 3).period is None


# -- value-round tally against the list/set/majority rule -----------------------


def _majority(values):
    ones = sum(values)
    zeros = len(values) - ones
    return 1 if ones > zeros else 0  # ties break to 0


def reference_transition(n, internal, round, received):
    """Phase-king-lite's transition as first written: the value round builds
    a 0/1 list, tests unanimity with a set and takes the majority by sum."""
    v, decided = internal
    if round % 2 == 1:
        values = [v] + [1 if m == b"1" else 0 for m in received.values()]
        if len(values) >= n - 1 and len(set(values)) == 1:
            if not decided:
                return (values[0], True), values[0]
            return (values[0], True), None
        return (_majority(values), decided), None
    phase = round // 2
    king = (phase - 1) % n
    if king in received:
        v = 1 if received[king] == b"1" else 0
    return (v, decided), None


class TallyMutant(PhaseKingLite):
    """Phase-king-lite's tally with one deliberate mistake in the value round."""

    def __init__(self, n, mistake):
        super().__init__(n)
        self.mistake = mistake

    def transition(self, internal, round, received):
        if round % 2 == 0:
            return super().transition(internal, round, received)
        v, decided = internal
        votes = list(received.values())
        ones = votes.count(b"1") + v
        size = len(votes) + 1
        quorum = self.n if self.mistake == "unanimity-needs-n" else self.n - 1
        if size >= quorum and (ones == size or not ones):
            if not decided or self.mistake == "decided-writes-again":
                return (v, True), v
            return (v, True), None
        tie = 1 if self.mistake == "ties-to-one" else 0
        return (1 if 2 * ones > size else tie if 2 * ones == size else 0, decided), None


def _tally_mismatch(protocol, n):
    """The first (internal, round, inbox) on which ``protocol`` and the
    reference rule differ, over every internal state, every round 1..4n and
    every inbox of payloads b"0", b"1" and b"x"; None if they never do."""
    inboxes = [dict(items) for items in sorted(_inboxes(n, (b"0", b"1", b"x")))]
    for internal in itertools.product((0, 1), (False, True)):
        for r in range(1, 4 * n + 1):
            for inbox in inboxes:
                got = protocol.transition(internal, r, inbox)
                if got != reference_transition(n, internal, r, inbox):
                    return internal, r, inbox
    return None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_phase_king_lite_tally_matches_reference_rule(n):
    assert _tally_mismatch(PhaseKingLite(n), n) is None


@pytest.mark.parametrize("mistake", ["ties-to-one", "unanimity-needs-n", "decided-writes-again"])
def test_tally_reference_catches_mutants(mistake):
    assert all(_tally_mismatch(TallyMutant(n, mistake), n) is not None for n in (3, 4, 5))
    # The mutant class is the real tally when it makes no mistake.
    assert all(_tally_mismatch(TallyMutant(n, None), n) is None for n in (3, 4, 5))
