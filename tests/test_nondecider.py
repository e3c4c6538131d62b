"""Decision oracles, dependence machinery, and the attack loop."""

import itertools

import pytest
from conftest import FloodMin, verify_witness

from adversim import nondecider
from adversim.core import AdversimError, initial_configuration
from adversim.nondecider import (
    AgreementViolation,
    AttackRound,
    ChainExhausted,
    InvariantViolation,
    NoFlipInChain,
    OracleCapExceeded,
    OutOfModelProbe,
    build_nondeciding_execution,
    default_cap,
    extend_dependent,
    failure_free_decision,
    find_dependent_in_chain,
    find_initial_dependent,
    is_p_dependent,
    report_records,
    silent_decision,
)
from adversim.protocols import naive_majority, phase_king_lite
from adversim.sync_engine import NO_FAULT, RoundFault, enumerate_faults, run, step_fts

CAP = default_cap(3)


def _all_inputs(n):
    return itertools.product((0, 1), repeat=n)


# -- oracles -------------------------------------------------------------------


def test_failure_free_decision_unanimous():
    pk = phase_king_lite(3)
    assert failure_free_decision(initial_configuration(pk, (0, 0, 0)), pk, CAP).decision == 0
    assert failure_free_decision(initial_configuration(pk, (1, 1, 1)), pk, CAP).decision == 1


def test_failure_free_decision_is_input_majority():
    # Independent oracle: failure-free phase 1 gives every process the full
    # input multiset, so the phase-1 majority is the decision.
    pk = phase_king_lite(3)
    for inputs in _all_inputs(3):
        majority = 1 if sum(inputs) > 3 - sum(inputs) else 0
        result = failure_free_decision(initial_configuration(pk, inputs), pk, CAP)
        assert result.decision == majority, inputs
        assert result.rounds_used <= 4


def test_silent_decision_unanimous_validity():
    pk = phase_king_lite(3)
    for b in (0, 1):
        config = initial_configuration(pk, (b, b, b))
        for p in range(3):
            assert silent_decision(config, p, pk, CAP).decision == b


def test_silent_decision_after_unanimity_converges():
    # two fault-free rounds from unanimous inputs leave all preferences at b
    pk = phase_king_lite(3)
    for b in (0, 1):
        result = run(initial_configuration(pk, (b, b, b)), pk, "fts", (), horizon=2)
        config = result.final_config
        for p in range(3):
            assert silent_decision(config, p, pk, CAP).decision == b


def test_silent_decision_persists_through_full_silence_step():
    # silencing p for one round does not change the p-silent decision
    pk = phase_king_lite(3)
    for inputs in _all_inputs(3):
        for p in range(3):
            config = initial_configuration(pk, inputs)
            before = silent_decision(config, p, pk, CAP).decision
            stepped = step_fts(config, pk, RoundFault(p, [q for q in range(3) if q != p]))
            after = silent_decision(stepped, p, pk, CAP).decision
            assert before == after


def test_silent_decision_persists_on_attack_reachable_configs():
    # the same suffix-closure property, probed deep inside an attack
    pk = phase_king_lite(3)
    attack = build_nondeciding_execution(pk, 3, rounds=12)
    for entry in attack.witnesses:
        config = entry.witness.config
        for p in range(3):
            before = silent_decision(config, p, pk, CAP).decision
            stepped = step_fts(config, pk, RoundFault(p, [q for q in range(3) if q != p]))
            assert silent_decision(stepped, p, pk, CAP).decision == before


def test_oracle_cap_exceeded_on_non_deciding_target():
    class Mute:
        protocol_id = "mute"
        n = None

        def init(self, pid, input):
            return 0

        def message(self, internal, round):
            return b""

        def transition(self, internal, round, received):
            return internal, None

    mute = Mute()
    with pytest.raises(OracleCapExceeded):
        failure_free_decision(initial_configuration(mute, (0, 0, 0)), mute, cap=8)


def test_oracle_agreement_violation_carries_trace():
    nm = naive_majority(3)
    config = step_fts(initial_configuration(nm, (0, 1, 1)), nm, RoundFault(1, [0]))
    with pytest.raises(AgreementViolation) as info:
        failure_free_decision(config, nm, CAP)
    assert set(info.value.outputs.values()) == {0, 1}
    assert info.value.fault == NO_FAULT


def test_restricted_attack_raises_out_of_model_probe():
    """Flooding is safe in the restricted model, so a disagreeing probe under
    full silence is no violation there; unrestricted, it still is one."""
    flood = FloodMin(4)
    with pytest.raises(OutOfModelProbe) as info:
        build_nondeciding_execution(flood, 4, rounds=5, restricted=True)
    assert info.value.fault == RoundFault(3, [0, 1, 2])
    steps = info.value.trace.steps
    assert steps and all(s.fault == info.value.fault for s in steps)
    with pytest.raises(AgreementViolation) as info:
        build_nondeciding_execution(flood, 4, rounds=5)
    assert not isinstance(info.value, OutOfModelProbe)


# -- dependence ----------------------------------------------------------------


def test_all_zero_initial_never_dependent():
    pk = phase_king_lite(3)
    config = initial_configuration(pk, (0, 0, 0))
    for p in range(3):
        assert is_p_dependent(config, p, pk, CAP) is None


def test_dependence_witness_verifies():
    pk = phase_king_lite(3)
    witness = find_initial_dependent(pk, 3)
    assert witness.ff_decision != witness.silent_decision
    assert verify_witness(witness, pk, CAP)
    fresh = is_p_dependent(witness.config, witness.process, pk, CAP)
    assert fresh is not None and fresh == witness


def test_decided_configuration_never_yields_witness():
    pk = phase_king_lite(3)
    result = run(initial_configuration(pk, (1, 1, 1)), pk, "fts", (), horizon=2)
    config = result.final_config
    assert config.all_decided()
    for p in range(3):
        assert is_p_dependent(config, p, pk, CAP) is None


# -- chain scan (both analysis cases) -------------------------------------------


def _two_config_chain(pk, inputs_a, inputs_b, p):
    a = initial_configuration(pk, inputs_a)
    b = initial_configuration(pk, inputs_b)
    return a, b, ((a, b), (p,))


def test_chain_scan_case_silent_disagrees_with_right_end():
    # silent decision at c_1 differs from ff(c_1): c_1 itself is dependent
    pk = phase_king_lite(3)
    a, b, chain = _two_config_chain(pk, (1, 0, 0), (1, 1, 0), 1)
    assert failure_free_decision(a, pk, CAP).decision == 0
    assert failure_free_decision(b, pk, CAP).decision == 1
    assert silent_decision(b, 1, pk, CAP).decision == 0  # case precondition
    k, witness = find_dependent_in_chain(*chain, pk, CAP)
    assert (k, witness.process) == (1, 1)
    assert witness.ff_decision == 1 and witness.silent_decision == 0


def test_chain_scan_case_silent_agrees_with_right_end():
    # silent decision at c_1 equals ff(c_1): dependence falls back to c_0,
    # because the silent runs from both ends coincide
    pk = phase_king_lite(3)
    found = None
    for inputs_a, inputs_b, p in _adjacent_input_pairs(3):
        a = initial_configuration(pk, inputs_a)
        b = initial_configuration(pk, inputs_b)
        ffa = failure_free_decision(a, pk, CAP).decision
        ffb = failure_free_decision(b, pk, CAP).decision
        if ffa == ffb:
            continue
        if silent_decision(b, p, pk, CAP).decision == ffb:
            found = (a, b, p, ffa)
            break
    assert found is not None, "no case-2 pair among initial configurations"
    a, b, p, ffa = found
    k, witness = find_dependent_in_chain((a, b), (p,), pk, CAP)
    assert (k, witness.process) == (0, p)
    assert witness.ff_decision == ffa


def _adjacent_input_pairs(n):
    for bits in itertools.product((0, 1), repeat=n):
        for p in range(n):
            flipped = tuple(1 - b if j == p else b for j, b in enumerate(bits))
            yield bits, flipped, p


def _assert_adjacent(configs, differing):
    assert len(differing) == len(configs) - 1
    for i, p in enumerate(differing):
        a, b = configs[i].states, configs[i + 1].states
        assert [q for q in range(len(a)) if a[q] != b[q]] == [p], i


def test_chain_scan_requires_flip():
    pk = phase_king_lite(3)
    a = initial_configuration(pk, (0, 0, 0))
    b = initial_configuration(pk, (0, 1, 0))  # both ff-decide 0
    with pytest.raises(NoFlipInChain):
        find_dependent_in_chain((a, b), (1,), pk, CAP)


# -- initial configuration search ------------------------------------------------


def test_initial_chain_construction_properties():
    pk = phase_king_lite(3)
    config = find_initial_dependent(pk, 3).config
    # endpoints of the monotone chain decide 0 and 1 by validity
    assert failure_free_decision(initial_configuration(pk, (0, 0, 0)), pk, CAP).decision == 0
    assert failure_free_decision(initial_configuration(pk, (1, 1, 1)), pk, CAP).decision == 1
    # the returned configuration is genuinely an initial one
    assert config.round == 1
    assert not config.outputs()


def test_initial_dependent_matches_brute_force():
    pk = phase_king_lite(3)
    brute = set()
    for inputs in _all_inputs(3):
        config = initial_configuration(pk, inputs)
        for p in range(3):
            if is_p_dependent(config, p, pk, CAP) is not None:
                brute.add((inputs, p))
    assert brute, "target must have some dependent initial configuration"
    witness = find_initial_dependent(pk, 3)
    assert (witness.config.inputs(), witness.process) in brute


def test_monotone_chain_adjacency():
    pk = phase_king_lite(3)
    configs = [
        initial_configuration(pk, tuple(1 if j < i else 0 for j in range(3)))
        for i in range(4)
    ]
    _assert_adjacent(configs, (0, 1, 2))


# -- extension ------------------------------------------------------------------


def test_extension_returns_verified_dependent_successor():
    pk = phase_king_lite(3)
    witness = find_initial_dependent(pk, 3)
    ext = extend_dependent(witness, pk)
    assert ext.fault.sender == witness.process
    assert ext.witness.config == step_fts(witness.config, pk, ext.fault)
    assert verify_witness(ext.witness, pk, CAP)
    assert not ext.witness.config.outputs()


def test_extension_chain_is_adjacent():
    pk = phase_king_lite(3)
    witness = find_initial_dependent(pk, 3)
    config, p = witness.config, witness.process
    others = [q for q in range(3) if q != p]
    configs = [
        step_fts(config, pk, RoundFault(p, others[i - 1 :])) for i in range(1, 4)
    ]
    _assert_adjacent(configs, others)  # c_i, c_{i+1} differ only in others[i-1]


def test_extension_endpoint_identities():
    # ff(c_n) is the opposite of the silent decision; ff(c_1) splits the cases
    pk = phase_king_lite(3)
    attack = build_nondeciding_execution(pk, 3, rounds=8)
    for entry in attack.witnesses:
        config, p = entry.witness.config, entry.witness.process
        b = entry.witness.silent_decision
        others = [q for q in range(3) if q != p]
        c_n = step_fts(config, pk, RoundFault(p, []))
        assert failure_free_decision(c_n, pk, CAP).decision == 1 - b


def test_extension_brute_force_membership_ten_rounds():
    pk = phase_king_lite(3)
    faults = enumerate_faults("fts", 3)
    attack = build_nondeciding_execution(pk, 3, rounds=10)
    for entry in attack.witnesses[:-1]:
        config = entry.witness.config
        ext = extend_dependent(entry.witness, pk)
        brute = set()
        for fault in faults:
            child = step_fts(config, pk, fault)
            for q in range(3):
                if child.outputs():
                    continue
                if is_p_dependent(child, q, pk, CAP) is not None:
                    brute.add((fault, q))
        assert (ext.fault, ext.witness.process) in brute


def test_extension_case_full_silence_occurs():
    # the attack must exercise the branch where full silence itself flips
    pk = phase_king_lite(3)
    attack = build_nondeciding_execution(pk, 3, rounds=20)
    full = [e for e in attack.witnesses[1:] if len(e.fault.victims) == 2]
    partial = [e for e in attack.witnesses[1:] if len(e.fault.victims) < 2]
    assert full, "full-silence branch never taken in 20 rounds"
    assert partial, "chain branch never taken in 20 rounds"


def reference_scan(configs, differing, protocol, cap, memo):
    """The chain scan before it stopped at the first flip: every entry is
    built and probed before the flip is looked for, and the witness is
    re-established by a fresh two-oracle test."""
    configs = tuple(configs)
    ffs = [failure_free_decision(c, protocol, cap, memo=memo).decision for c in configs]
    flip = next((j for j in range(1, len(ffs)) if ffs[j - 1] != ffs[j]), None)
    if flip is None:
        raise NoFlipInChain("no flip in chain")
    p = differing[flip - 1]
    sil = silent_decision(configs[flip], p, protocol, cap, memo=memo)
    k = flip if sil.decision != ffs[flip] else flip - 1
    witness = is_p_dependent(configs[k], p, protocol, cap, memo=memo)
    if witness is None:
        raise InvariantViolation(f"chain entry {k} failed re-verification as {p}-dependent")
    return k, witness


def reference_extend(witness, protocol, cap, restricted, memo):
    """The extension rule before the chain came from one fan-out round:
    c_1 stepped on its own, then one step_fts per chain entry."""
    config, p = witness.config, witness.process
    n = config.n
    others = [q for q in range(n) if q != p]
    if not restricted:
        full = RoundFault(p, others)
        c1 = step_fts(config, protocol, full)
        if failure_free_decision(c1, protocol, cap, memo=memo).decision != witness.silent_decision:
            w = is_p_dependent(c1, p, protocol, cap, memo=memo)
            if w is None:
                raise InvariantViolation("full-silence successor failed re-verification")
            return full, w
    start = 2 if restricted else 1
    faults = [RoundFault(p, others[i - 1 :]) for i in range(start, n + 1)]
    configs = tuple(step_fts(config, protocol, f) for f in faults)
    try:
        k, w = reference_scan(configs, others[start - 1 :], protocol, cap, memo)
    except NoFlipInChain:
        if restricted:
            raise ChainExhausted() from None
        raise InvariantViolation("progressive delivery chain endpoints failed to flip") from None
    return faults[k], w


def _outcome(call):
    """A call's result, or the type and message of the construction error it raised."""
    try:
        return call()
    except (NoFlipInChain, ChainExhausted, InvariantViolation) as exc:
        return type(exc), str(exc)


def _attack_witnesses(pk, n):
    """Every witness the attacks at n reach in 10 rounds, restricted and not."""
    return dict.fromkeys(
        entry.witness
        for restricted in (False, True)
        for entry in build_nondeciding_execution(pk, n, rounds=10, restricted=restricted).witnesses
    )


@pytest.mark.parametrize("n", range(3, 9))
def test_extension_matches_stepped_chain(n):
    pk = phase_king_lite(n)
    cap = default_cap(n)
    memo, reference_memo = {}, {}
    outcomes = set()
    for witness in _attack_witnesses(pk, n):
        for restricted in (False, True):
            got = _outcome(lambda: extend_dependent(witness, pk, cap, restricted, memo=memo))
            want = _outcome(lambda: reference_extend(witness, pk, cap, restricted, reference_memo))
            if isinstance(got, AttackRound):
                got = (got.fault, got.witness)
            assert got == want, (witness, restricted)
            outcomes.add(want[0] if want[0] is ChainExhausted else "extended")
    assert outcomes == {ChainExhausted, "extended"}


def _attack_chains(pk, n):
    """Every chain the attacks at n scan in 10 rounds, each stepped entry by
    entry: the input chain, and from each witness the progressive delivery
    chains c_1..c_n and c_2..c_n, with the process each adjacent pair
    differs in."""
    inputs = [tuple(1 if j < i else 0 for j in range(n)) for i in range(n + 1)]
    chains = [(tuple(initial_configuration(pk, b) for b in inputs), tuple(range(n)))]
    for witness in _attack_witnesses(pk, n):
        config, p = witness.config, witness.process
        others = [q for q in range(n) if q != p]
        for start in (1, 2):
            faults = [RoundFault(p, others[i - 1 :]) for i in range(start, n + 1)]
            configs = tuple(step_fts(config, pk, f) for f in faults)
            chains.append((configs, tuple(others[start - 1 :])))
    return chains


def _drawn(configs, log):
    for config in configs:
        log.append(config)
        yield config


@pytest.mark.parametrize("n", range(3, 9))
def test_chain_scan_matches_eager_scan_and_stops_at_first_flip(n, monkeypatch):
    pk = phase_king_lite(n)
    cap = default_cap(n)
    ff_probes = []

    def counted_failure_free_decision(config, *args, **kwargs):
        ff_probes.append(config)
        return failure_free_decision(config, *args, **kwargs)

    monkeypatch.setattr(nondecider, "failure_free_decision", counted_failure_free_decision)
    memo, reference_memo = {}, {}
    stopped_early = 0
    for configs, differing in _attack_chains(pk, n):
        want = _outcome(lambda: reference_scan(configs, differing, pk, cap, reference_memo))
        ffs = [failure_free_decision(c, pk, cap).decision for c in configs]
        last = len(configs) - 1
        first_flip = next((j for j in range(1, len(ffs)) if ffs[j - 1] != ffs[j]), last)
        drawn = []
        ff_probes.clear()
        got = _outcome(
            lambda: find_dependent_in_chain(_drawn(configs, drawn), differing, pk, cap, memo=memo)
        )
        assert got == want, (configs, differing)
        assert drawn == list(configs[: first_flip + 1])
        assert ff_probes == drawn
        stopped_early += first_flip < last
    assert stopped_early, "no chain flips before its last entry"


@pytest.mark.parametrize("n", range(3, 9))
def test_extension_probes_each_chain_entry_once(n, monkeypatch):
    # c_1's failure-free decision from the full-silence test is the chain
    # scan's first entry too: each entry drawn is probed once, in order.
    pk = phase_king_lite(n)
    cap = default_cap(n)
    ff_probes, drawn = [], []

    def counted_failure_free_decision(config, *args, **kwargs):
        ff_probes.append(config)
        return failure_free_decision(config, *args, **kwargs)

    successors = nondecider.successors
    monkeypatch.setattr(nondecider, "failure_free_decision", counted_failure_free_decision)
    monkeypatch.setattr(nondecider, "successors", lambda *args: _drawn(successors(*args), drawn))
    scanned = 0
    for witness in _attack_witnesses(pk, n):
        ff_probes.clear()
        drawn.clear()
        extend_dependent(witness, pk, cap, memo={})
        assert ff_probes == drawn, witness
        scanned += len(drawn) > 1
    assert scanned, "no extension reached the chain scan"


# -- attack loop ------------------------------------------------------------------


def test_attack_single_round():
    pk = phase_king_lite(3)
    result = build_nondeciding_execution(pk, 3, rounds=1)
    assert result.rounds_built == 1
    assert result.outputs_written() == 0
    assert len(result.witnesses) == 2
    for entry in result.witnesses:
        assert verify_witness(entry.witness, pk, CAP)


def test_attack_thirty_rounds_no_outputs():
    pk = phase_king_lite(3)
    result = build_nondeciding_execution(pk, 3, rounds=30)
    assert result.rounds_built == 30
    assert result.outputs_written() == 0
    assert len(result.witnesses) == 31
    assert result.exhausted_at is None


def test_attack_trace_replays_clean():
    from adversim.core import validate_trace

    pk = phase_king_lite(3)
    result = build_nondeciding_execution(pk, 3, rounds=15)
    report = validate_trace(result.trace)
    assert report.valid, report.problems


def test_restricted_attack_exhausts():
    pk = phase_king_lite(3)
    result = build_nondeciding_execution(pk, 3, rounds=50, restricted=True)
    assert result.exhausted_at is not None
    assert result.outputs_written() == 0


def test_restricted_extension_raises_chain_exhausted():
    pk = phase_king_lite(3)
    result = build_nondeciding_execution(pk, 3, rounds=50, restricted=True)
    # re-create the failing extension call at the exhaustion point
    entry = result.witnesses[-1]
    with pytest.raises(ChainExhausted):
        extend_dependent(entry.witness, pk, restricted=True)


def test_restricted_faults_never_full_silence():
    pk = phase_king_lite(5)
    result = build_nondeciding_execution(pk, 5, rounds=40, restricted=True)
    for step in result.trace.steps:
        assert len(step.fault.victims) <= 3  # n-2
    # The restricted attack exhausts its chain at round 1, so the loop above
    # sees no step.  Extending every witness the attacks reach supplies
    # restricted rounds that do return.
    extended = 0
    for n in range(3, 9):
        pk = phase_king_lite(n)
        memo = {}
        for witness in _attack_witnesses(pk, n):
            try:
                step = extend_dependent(witness, pk, default_cap(n), restricted=True, memo=memo)
            except ChainExhausted:
                continue
            assert len(step.fault.victims) <= n - 2, (witness, step.fault)
            extended += 1
    assert extended, "no restricted extension returned"


def test_report_records_shape():
    pk = phase_king_lite(3)
    result = build_nondeciding_execution(pk, 3, rounds=5)
    records = report_records(result)
    assert len(records) == 6
    assert records[0]["round"] == 0 and "fault" not in records[0]
    for rec in records:
        assert rec["outputs_written"] == 0
        assert set(rec["witness"]) == {"pid", "ff", "silent"}
        assert rec["witness"]["ff"] != rec["witness"]["silent"]


# -- oracle memo ------------------------------------------------------------------


def _oracle(config, p, protocol, cap, **memo):
    """The failure-free decision for p None, else the p-silent decision."""
    if p is None:
        return failure_free_decision(config, protocol, cap, **memo)
    return silent_decision(config, p, protocol, cap, **memo)


def _probe_path(config, p, protocol):
    """The configurations a probe steps through, start included, end excluded."""
    n = config.n
    fault = RoundFault(0, []) if p is None else RoundFault(p, [q for q in range(n) if q != p])
    path = []
    while not config.all_decided():
        path.append(config)
        config = step_fts(config, protocol, fault)
    return path


def test_memo_hit_beyond_cap_raises_like_fresh_probe():
    # The 0-silent probe from (1,1,0) needs 5 rounds.  Recording the probe
    # from two rounds in lets the full probe hit after k = 2 stepped rounds
    # with 3 rounds left: 5 in all.
    pk = phase_king_lite(3)
    start = initial_configuration(pk, (1, 1, 0))
    total = silent_decision(start, 0, pk, CAP).rounds_used
    assert total == 5
    inner = _probe_path(start, 0, pk)[2]

    def memo_from_inner():
        memo = {}
        assert silent_decision(inner, 0, pk, CAP, memo=memo).rounds_used == total - 2
        return memo

    with pytest.raises(OracleCapExceeded):
        silent_decision(start, 0, pk, total - 1)
    with pytest.raises(OracleCapExceeded) as info:
        silent_decision(start, 0, pk, total - 1, memo=memo_from_inner())
    assert (info.value.kind, info.value.cap) == ("0-silent", total - 1)
    fresh = silent_decision(start, 0, pk, total)
    assert fresh.rounds_used == total
    assert silent_decision(start, 0, pk, total, memo=memo_from_inner()) == fresh


@pytest.mark.parametrize("n", [3, 4, 5])
def test_memoized_oracles_match_fresh_on_attack_configs(n):
    pk = phase_king_lite(n)
    cap = default_cap(n)
    configs = [e.witness.config for e in build_nondeciding_execution(pk, n, rounds=10).witnesses]
    memo = {}
    for config in configs:
        for p in [None, *range(n)]:
            # the start first (it may hit a path recorded by an earlier
            # probe after k rounds), then every configuration on its path
            for c in _probe_path(config, p, pk):
                assert _oracle(c, p, pk, cap, memo=memo) == _oracle(c, p, pk, cap), (c, p)
    # and the attack's own memoized steps agree with unmemoized ones
    witness = find_initial_dependent(pk, n)
    assert find_initial_dependent(pk, n, memo={}) == witness
    memo = {}
    for _ in range(10):
        ext = extend_dependent(witness, pk)
        assert extend_dependent(witness, pk, memo=memo) == ext
        witness = ext.witness


@pytest.mark.parametrize("first", ["naive-majority", "phase-king-lite"])
def test_memo_entries_never_cross_protocols(first):
    # Both protocols start from (input, False), so their initial
    # configurations are equal; one memo must still keep them apart.
    nm, pk = naive_majority(3), phase_king_lite(3)
    protocols = [nm, pk] if first == "naive-majority" else [pk, nm]
    inputs = (1, 1, 0)
    assert initial_configuration(nm, inputs) == initial_configuration(pk, inputs)
    memo = {}
    for protocol in protocols:
        config = initial_configuration(protocol, inputs)
        fresh = failure_free_decision(config, protocol, CAP)
        assert failure_free_decision(config, protocol, CAP, memo=memo) == fresh
    assert failure_free_decision(initial_configuration(nm, inputs), nm, CAP).rounds_used == 1
    assert failure_free_decision(initial_configuration(pk, inputs), pk, CAP).rounds_used == 3


def test_memoized_agreement_violation_carries_the_fresh_trace():
    nm = naive_majority(3)
    config = step_fts(initial_configuration(nm, (0, 1, 1)), nm, RoundFault(1, [0]))
    memo = {}
    with pytest.raises(AgreementViolation) as fresh:
        failure_free_decision(config, nm, CAP)
    for _ in range(2):
        with pytest.raises(AgreementViolation) as memoized:
            failure_free_decision(config, nm, CAP, memo=memo)
        assert memoized.value.outputs == fresh.value.outputs
        assert memoized.value.trace == fresh.value.trace


# -- declared period: the lasso ---------------------------------------------------


def _unperiodic(n):
    """Phase-king-lite declaring no period: the attack probes every round."""
    pk = phase_king_lite(n)
    pk.period = None
    return pk


def _attack_outcome(protocol, n, rounds, restricted=False):
    """An attack's trace bytes, report and witnesses, or the type and message
    of the error it raised."""
    try:
        result = build_nondeciding_execution(protocol, n, rounds, restricted=restricted)
    except AdversimError as exc:
        return type(exc), str(exc)
    return result.trace.to_jsonl(), report_records(result), result.witnesses, result.exhausted_at


@pytest.mark.parametrize("n", range(3, 17))
def test_lasso_attack_matches_unperiodic_attack_over_three_loops(n):
    pk = phase_king_lite(n)
    lasso = build_nondeciding_execution(pk, n, rounds=4 * pk.period).lasso
    assert lasso is not None
    stem, loop = lasso
    assert loop % pk.period == 0
    rounds = stem + 3 * loop
    assert _attack_outcome(pk, n, rounds) == _attack_outcome(_unperiodic(n), n, rounds)
    assert build_nondeciding_execution(_unperiodic(n), n, rounds).lasso is None


@pytest.mark.parametrize("n", range(3, 13))
def test_restricted_lasso_attack_matches_unperiodic_attack(n):
    rounds = 8 * n
    got = _attack_outcome(phase_king_lite(n), n, rounds, restricted=True)
    assert got == _attack_outcome(_unperiodic(n), n, rounds, restricted=True)


def test_wrong_period_fails_the_differential():
    # Negative control: n is not a period of phase-king-lite at n = 5 (the
    # parity of the round changes), so keying on it must change the attack.
    n = 5
    wrong = phase_king_lite(n)
    wrong.period = n
    stem, loop = build_nondeciding_execution(phase_king_lite(n), n, rounds=40).lasso
    rounds = stem + 3 * loop
    assert _attack_outcome(wrong, n, rounds) != _attack_outcome(_unperiodic(n), n, rounds)


def test_rounds_past_the_loop_make_no_extension(monkeypatch):
    calls = []
    real = nondecider.extend_dependent

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nondecider, "extend_dependent", counted)
    pk = phase_king_lite(16)
    counts = []
    for rounds in (35, 400):
        calls.clear()
        result = build_nondeciding_execution(pk, 16, rounds)
        assert result.lasso == (3, 32) and result.rounds_built == rounds
        counts.append(len(calls))
    assert counts == [35, 35]
