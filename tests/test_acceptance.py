"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run as ``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
Budgets: criterion 1 under 60 s per attack, criterion 5 under 5 minutes,
criterion 7 under 2 minutes; everything else is exact or boolean.
"""

import itertools
import json
import random
import time
from functools import partial

import pytest
from conftest import (
    RecordingPhaseKing,
    enumerate_faults,
    is_p_dependent,
    recorded_delivery,
    run_adversim,
    verify_witness,
)

from adversim import checking
from adversim.async_engine import SeededFairScheduler, run_async
from adversim.core import (
    ExecutionTrace,
    OracleCapExceeded,
    ReceiveFault,
    initial_configuration,
    validate_trace,
)
from adversim.nondecider import (
    build_nondeciding_execution,
    default_cap,
    extend_dependent,
    failure_free_decision,
    find_initial_dependent,
    silent_decision,
)
from adversim.protocols import PhaseKingLite, get_protocol
from adversim.simulations import (
    GetCoreWrapper,
    PiggybackWrapper,
    SynchronizerWrapper,
    getcore_rounds,
    piggyback_ledger,
    project_synchronized_run,
)
from adversim.sync_engine import run, silence, step_fts


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _tail(text):
    return text[-300:].strip()


# -- 1. attack demo ---------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_acceptance_1_attack_demo(n, tmp_path):
    start = time.time()
    proc = run_adversim(
        ["attack", "--protocol", "phase-king-lite", "--n", str(n), "--rounds", "30",
         "--out", "t.jsonl", "--report", "r.jsonl"],
        cwd=tmp_path,
    )
    elapsed = time.time() - start
    if proc.returncode != 0:
        _report(f"1 (n={n})", False, f"exit={proc.returncode}, stderr: {_tail(proc.stderr)}")
    records = [json.loads(x) for x in (tmp_path / "r.jsonl").read_text().splitlines()]
    trace = ExecutionTrace.read(tmp_path / "t.jsonl")

    # fresh re-verification of every witness against the deterministic rebuild
    result = build_nondeciding_execution(PhaseKingLite(n), n, rounds=30)
    cap = default_cap(n)
    verified = all(verify_witness(e.witness, PhaseKingLite(n), cap) for e in result.witnesses)

    ok = (
        proc.returncode == 0
        and len(records) == 31
        and all(r["outputs_written"] == 0 for r in records)
        and not trace.output_map()
        and len(trace.steps) == 30
        and len(result.witnesses) == 31
        and verified
        and elapsed < 60
    )
    _report(
        f"1 (n={n})",
        ok,
        f"exit={proc.returncode}, witnesses={len(records)}, outputs=0, "
        f"verified={verified}, {elapsed:.1f}s < 60s",
    )


# -- 2. initial dependence vs brute force -------------------------------------------


def test_acceptance_2_initial_dependence_brute_force():
    pk = PhaseKingLite(3)
    cap = default_cap(3)
    brute = set()
    for inputs in itertools.product((0, 1), repeat=3):
        config = initial_configuration(pk, inputs)
        for p in range(3):
            if is_p_dependent(config, p, pk, cap) is not None:
                brute.add((inputs, p))
    witness = find_initial_dependent(pk, 3)
    found = (witness.config.inputs(), witness.process)
    member = found in brute
    _report(
        2,
        member and verify_witness(witness, pk, cap),
        f"found {found} within brute-force set of {len(brute)} pairs",
    )


# -- 3. extension vs brute force ------------------------------------------------------


def test_acceptance_3_extension_brute_force_ten_rounds():
    pk = PhaseKingLite(3)
    cap = default_cap(3)
    faults = enumerate_faults("fts", 3)
    attack = build_nondeciding_execution(pk, 3, rounds=10)
    checked = 0
    for entry in attack.witnesses[:-1]:
        ext = extend_dependent(entry.witness, pk)
        brute = set()
        for fault in faults:
            child = step_fts(entry.witness.config, pk, fault)
            if child.outputs():
                continue
            for q in range(3):
                if is_p_dependent(child, q, pk, cap) is not None:
                    brute.add((fault, q))
        assert (ext.fault, ext.witness.process) in brute, f"round {entry.round + 1}"
        checked += 1
    _report(3, checked == 10, f"{checked}/10 extensions inside their brute-force sets")


# -- 4. restricted adversary fails, unrestricted succeeds -----------------------------


def test_acceptance_4_restricted_negative(tmp_path):
    proc = run_adversim(
        ["attack", "--restricted", "--protocol", "phase-king-lite", "--n", "3",
         "--rounds", "30", "--out", "t.jsonl", "--report", "r.jsonl"],
        cwd=tmp_path,
    )
    restricted = build_nondeciding_execution(PhaseKingLite(3), 3, rounds=30, restricted=True)
    unrestricted = build_nondeciding_execution(PhaseKingLite(3), 3, rounds=30)
    r = restricted.exhausted_at
    ok = (
        proc.returncode == 0
        and "chain exhausted at round" in proc.stderr
        and r is not None
        and unrestricted.exhausted_at is None
        and unrestricted.rounds_built >= r  # the same round extends fine unrestricted
    )
    _report(
        4,
        ok,
        f"exit={proc.returncode}, restricted exhausted at round {r}, "
        f"unrestricted.exhausted_at={unrestricted.exhausted_at} after "
        f"{unrestricted.rounds_built} rounds; stderr: {_tail(proc.stderr)}",
    )


# -- 5. target correctness --------------------------------------------------------------


def test_acceptance_5_target_correctness():
    start = time.time()
    pk3 = PhaseKingLite(3)
    exhaustive = checking.check_exhaustive(pk3, 3, depth=4, model="fts")
    fuzz_ok = True
    fuzz_counts = []
    for n in (4, 5, 6):
        result = checking.check_fuzz(
            get_protocol("phase-king-lite", n), n, runs=100_000, depth=30, seed=20_240 + n
        )
        fuzz_ok = fuzz_ok and result.ok
        fuzz_counts.append(result.explored)
    # every failure-free and single-silenced fts run, from every input vector,
    # decides within 6 rounds: the decision oracles with cap 6, one memo per n
    liveness_failures = []
    for n in (3, 4, 5, 6):
        pk, memo = get_protocol("phase-king-lite", n), {}
        for bits in itertools.product((0, 1), repeat=n):
            config = initial_configuration(pk, bits)
            probes = [partial(failure_free_decision, config, pk, 6)]
            probes += [partial(silent_decision, config, p, pk, 6) for p in range(n)]
            for probe in probes:
                try:
                    probe(memo=memo)
                except OracleCapExceeded as exc:
                    liveness_failures.append((bits, str(exc)))
    elapsed = time.time() - start
    ok = exhaustive.ok and fuzz_ok and not liveness_failures and elapsed < 300
    _report(
        5,
        ok,
        f"exhaustive d4 {'clean' if exhaustive.ok else 'VIOLATED'} ({exhaustive.explored} "
        f"rounds), fuzz 3x100k {'clean' if fuzz_ok else 'VIOLATED'}, "
        f"{len(liveness_failures)} benign runs undecided by round 6 {liveness_failures[:2]}, "
        f"{elapsed:.0f}s < 300s",
    )


# -- 6. negative controls ------------------------------------------------------------------


def test_acceptance_6_negative_controls():
    nm = checking.check_exhaustive(get_protocol("naive-majority", 3), 3, depth=2)
    c0 = checking.check_exhaustive(get_protocol("constant-0", 3), 3, depth=2)
    ok = (
        nm.violation is not None
        and nm.violation.kind == "agreement"
        and nm.violation.round <= 2
        and c0.violation is not None
        and c0.violation.kind == "validity"
    )
    detail = "no violations found"
    if ok:
        detail = (
            f"naive-majority: agreement at round {nm.violation.round}, "
            f"inputs {list(nm.violation.inputs)}; constant-0: validity, "
            f"inputs {list(c0.violation.inputs)}"
        )
    _report(6, ok, detail)


# -- 7. gather-core emulation -----------------------------------------------------------------


def test_acceptance_7_core_lemma():
    # each core is read off the fault script; the recording inner protocol
    # checks that the wrapper delivered exactly what the script says
    start = time.time()
    n = 3
    wrapped = GetCoreWrapper(RecordingPhaseKing(n), n)
    base_config = initial_configuration(wrapped, (1, 0, 0))
    faults = enumerate_faults("ftr", n)
    worst = n
    combos = 0
    delivered_ok = True
    for combo in itertools.product(faults, repeat=3):
        result = run(base_config, wrapped, "ftr", list(combo), horizon=3)
        rep = getcore_rounds(combo, n)[0]
        worst = min(worst, len(rep.core))
        delivered_ok = delivered_ok and recorded_delivery(result.final_config) == rep.delivery
        combos += 1
    exhaustive_ok = worst >= n - 1 and combos == 27**3 and delivered_ok

    fuzz_ok = True
    for nn in (4, 5):
        w = GetCoreWrapper(RecordingPhaseKing(nn), nn)
        cfg = initial_configuration(w, tuple((i * 7 + 1) % 2 for i in range(nn)))
        fs = enumerate_faults("ftr", nn)
        rng = random.Random(520 + nn)
        for _ in range(10_000):
            combo = [rng.choice(fs) for _ in range(3)]
            result = run(cfg, w, "ftr", combo, horizon=3)
            rep = getcore_rounds(combo, nn)[0]
            if len(rep.core) < nn - 1 or recorded_delivery(result.final_config) != rep.delivery:
                fuzz_ok = False
                break
    elapsed = time.time() - start
    ok = exhaustive_ok and fuzz_ok and elapsed < 120
    _report(
        7,
        ok,
        f"27^3 exhaustive worst core {worst} >= 2, delivery as scripted, fuzz 2x10k clean, "
        f"{elapsed:.0f}s < 120s",
    )


# -- 8. synchronizer faithfulness ------------------------------------------------------------------


def test_acceptance_8_synchronizer_faithfulness():
    n = 4
    base = PhaseKingLite(n)
    horizon = 500
    bad = []
    for i in range(1_000):
        rng = random.Random(checking.stream_seed(8_800, "schedule", i))
        crash = None
        if rng.random() < 0.5:
            crash = (rng.randrange(n), rng.randrange(350))
        proto = SynchronizerWrapper(base, n)
        sched = SeededFairScheduler(n, checking.stream_seed(8_800, "seed", i))
        inputs = tuple(rng.randrange(2) for _ in range(n))
        result = run_async(inputs, proto, sched, horizon=horizon, crash=crash)
        final = result.final_state
        proj = project_synchronized_run(
            [s.internal for s in final.states], final.crashed, base, inputs
        )
        if not proj.report.valid or proj.min_round < 20:
            bad.append((i, crash, proj.min_round, proj.report.problems[:2]))
    _report(
        8,
        not bad,
        f"1000 schedules, projections valid, min simulated round >= 20 (bad: {bad[:3]})",
    )


# -- 9. piggyback liveness ------------------------------------------------------------------


def test_acceptance_9_piggyback_liveness():
    n = 3
    horizon = 50

    def fresh():
        return PiggybackWrapper(SynchronizerWrapper(PhaseKingLite(n), n), n)

    # scripted adversaries: one rotating drop per round; nobody silenced for long
    scripts = {
        "rotating-receiver": [
            ReceiveFault({r % n: (r + 1) % n}) for r in range(horizon)
        ],
        "rotating-pairs": [
            ReceiveFault({(r + 2) % n: r % n}) for r in range(horizon)
        ],
        "alternating-none": [
            ReceiveFault({0: 1}) if r % 2 == 0 else ReceiveFault({}) for r in range(horizon)
        ],
    }
    lag_ok = True
    for name, faults in scripts.items():
        proto = fresh()
        config = initial_configuration(proto, (1, 0, 0))
        result = run(config, proto, "ftr", faults, horizon=horizon, keep_configs=True)
        for entry in piggyback_ledger(result.configs):
            if entry.sent_round > horizon - 2:
                continue  # no room left in the horizon to observe delivery
            got = dict(entry.deliveries)
            for q in entry.expected_receivers(n):
                if q not in got or got[q] - entry.sent_round > 2:
                    lag_ok = False

    # silent(p): everything among the others still flows
    silent_ok = True
    p = 1
    proto = fresh()
    silenced = itertools.repeat(silence(p, n, "ftr"))
    config = initial_configuration(proto, (1, 0, 0))
    result = run(config, proto, "ftr", silenced, horizon=horizon, keep_configs=True)
    for entry in piggyback_ledger(result.configs):
        if entry.sender == p or entry.sent_round > horizon - 2:
            continue
        if not entry.fully_delivered(n):
            silent_ok = False
    _report(
        9,
        lag_ok and silent_ok,
        f"3 scripts: delivery within 2 rounds; silent({p}): all other traffic delivered",
    )


# -- 10. determinism ------------------------------------------------------------------


def test_acceptance_10_determinism(tmp_path):
    commands = {
        "fts-run": ["run", "--model", "fts", "--protocol", "phase-king-lite", "--n", "3",
                    "--inputs", "1,0,0", "--adversary", "silent:1", "--horizon", "8",
                    "--out", "trace.jsonl"],
        "ftr-run": ["run", "--model", "ftr", "--protocol", "phase-king-lite", "--n", "4",
                    "--seed", "5", "--adversary", "random", "--horizon", "12",
                    "--out", "trace.jsonl"],
        "flp-run": ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite",
                    "--n", "3", "--inputs", "1,1,0", "--scheduler", "random", "--seed", "7",
                    "--horizon", "120", "--out", "trace.jsonl"],
        "attack": ["attack", "--protocol", "phase-king-lite", "--n", "3", "--rounds", "12",
                   "--out", "trace.jsonl", "--report", "report.jsonl"],
        "sim-getcore": ["simulate", "--stack", "fts-over-ftr", "--protocol", "phase-king-lite",
                        "--n", "3", "--inputs", "1,0,0", "--adversary", "random", "--seed", "3",
                        "--horizon", "15", "--out", "trace.jsonl", "--report", "report.jsonl"],
        "sim-sync": ["simulate", "--stack", "ftr-over-flp", "--protocol", "phase-king-lite",
                     "--n", "4", "--inputs", "1,0,1,0", "--scheduler", "random", "--seed", "11",
                     "--crash", "2:40", "--horizon", "400", "--out", "trace.jsonl",
                     "--report", "report.jsonl"],
        "sim-piggy": ["simulate", "--stack", "flp-over-ftr", "--protocol", "phase-king-lite",
                      "--n", "3", "--inputs", "1,1,0", "--adversary", "silent:2",
                      "--horizon", "24", "--out", "trace.jsonl", "--report", "report.jsonl"],
        "check-nm": ["check", "--protocol", "naive-majority", "--n", "3", "--mode",
                     "exhaustive", "--depth", "2", "--out", "trace.jsonl",
                     "--report", "report.jsonl"],
    }
    # check-nm finds the naive-majority agreement violation: the README's `# exit 1`
    expected_exit = {name: 1 if name == "check-nm" else 0 for name in commands}
    problems = []
    for name, args in commands.items():
        artifacts = ["trace.jsonl"] + (["report.jsonl"] if "--report" in args else [])
        dirs = []
        for attempt in ("x", "y"):
            d = tmp_path / f"{name}-{attempt}"
            d.mkdir()
            proc = run_adversim(args, cwd=d)
            if proc.returncode != expected_exit[name]:
                problems.append(
                    f"{name}: exit {proc.returncode}, expected {expected_exit[name]}: "
                    f"{_tail(proc.stderr)}"
                )
            dirs.append(d)
        missing = [f"{d.name}/{a}" for d in dirs for a in artifacts if not (d / a).exists()]
        if missing:
            problems.append(f"{name}: missing {missing}")
            continue
        for artifact in artifacts:
            if (dirs[0] / artifact).read_bytes() != (dirs[1] / artifact).read_bytes():
                problems.append(f"{name}: {artifact} bytes differ across runs")
        # replaying the emitted trace reproduces the byte-identical file
        text = (dirs[0] / "trace.jsonl").read_text()
        trace = ExecutionTrace.from_jsonl(text)
        if trace.to_jsonl() != text:
            problems.append(f"{name}: parse/serialize round trip not byte-identical")
        report = validate_trace(trace)
        if not report.valid:
            problems.append(f"{name}: emitted trace does not validate: {report.problems[:2]}")
    detail = "8 commands: expected exit codes, artefacts byte-identical and replay-clean"
    if problems:
        detail = f"{len(problems)} problems: {problems[:3]}"
    _report(10, not problems, detail)
