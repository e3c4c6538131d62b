"""Command-line contract: exit codes, artifacts, reproducibility."""

import json
import os
import resource
import time

import pytest

from adversim import cli, protocols
from adversim.cli import main
from conftest import FloodMin, run_adversim


def run_cli(args, cwd=None, env_extra=None):
    """Invoke the CLI in-process; returns the exit code."""
    old = os.getcwd()
    environ_backup = {}
    try:
        if cwd is not None:
            os.chdir(cwd)
        if env_extra:
            for k, v in env_extra.items():
                environ_backup[k] = os.environ.get(k)
                os.environ[k] = v
        return main(args)
    finally:
        os.chdir(old)
        for k, v in environ_backup.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# -- attack ---------------------------------------------------------------------


def test_attack_exit_zero_and_artifacts(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    rep = tmp_path / "r.jsonl"
    code = run_cli(
        ["attack", "--protocol", "phase-king-lite", "--n", "3", "--rounds", "10",
         "--out", str(out), "--report", str(rep)]
    )
    assert code == 0
    assert "10 non-deciding rounds, 11 witnesses, 0 outputs written" in capsys.readouterr().err
    records = read_jsonl(rep)
    assert len(records) == 11
    assert all(r["outputs_written"] == 0 for r in records)
    trace_lines = out.read_text().splitlines()
    assert len(trace_lines) == 11  # header + 10 steps


def test_attack_restricted_reports_exhaustion_exit_zero(tmp_path, capsys):
    code = run_cli(
        ["attack", "--protocol", "phase-king-lite", "--n", "3", "--rounds", "10",
         "--restricted", "--out", str(tmp_path / "t.jsonl"), "--report", str(tmp_path / "r.jsonl")]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "chain exhausted at round" in err
    assert "limit of the restricted construction, not evidence" in err
    records = read_jsonl(tmp_path / "r.jsonl")
    assert records[-1].get("chain_exhausted") is True


def test_attack_unknown_protocol_exit_three(tmp_path):
    assert run_cli(["attack", "--protocol", "nope", "--n", "3"]) == 3


def test_attack_oracle_cap_exit_two(tmp_path):
    code = run_cli(
        ["attack", "--protocol", "phase-king-lite", "--n", "3", "--rounds", "5",
         "--cap", "1", "--out", str(tmp_path / "t.jsonl"), "--report", str(tmp_path / "r.jsonl")]
    )
    assert code == 2


def test_attack_constant_reports_no_dependence(tmp_path, capsys):
    # every input vector decides b, so the unanimous 1 - b vector violates validity
    for b in (0, 1):
        outdir = tmp_path / str(b)
        outdir.mkdir()
        code = run_cli(["attack", "--protocol", f"constant-{b}", "--n", "3", "--rounds", "5"],
                       env_extra={"ADVERSIM_OUTDIR": str(outdir)})
        assert code == 1
        assert "no dependent initial configuration" in capsys.readouterr().err
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["violation.report.jsonl", "violation.trace.jsonl"]
        (record,) = read_jsonl(outdir / "violation.report.jsonl")
        assert record == {"violation": "validity", "inputs": [1 - b] * 3, "round": 1,
                          "outputs": {"0": b, "1": b, "2": b}}
        header, *steps = read_jsonl(outdir / "violation.trace.jsonl")
        assert header["inputs"] == [1 - b] * 3 and header["protocol"] == f"constant-{b}"
        assert steps[-1]["outputs"] == record["outputs"]
        assert run_cli(["validate", str(outdir / "violation.trace.jsonl")]) == 0


# -- check ----------------------------------------------------------------------


def test_check_clean_target_exit_zero(tmp_path):
    code = run_cli(
        ["check", "--protocol", "phase-king-lite", "--n", "3", "--mode", "exhaustive",
         "--depth", "2", "--out", str(tmp_path / "v.jsonl"), "--report", str(tmp_path / "vr.jsonl")]
    )
    assert code == 0
    assert not (tmp_path / "v.jsonl").exists()


def test_check_naive_majority_violation_exit_one(tmp_path):
    out = tmp_path / "v.jsonl"
    rep = tmp_path / "vr.jsonl"
    code = run_cli(
        ["check", "--protocol", "naive-majority", "--n", "3", "--mode", "exhaustive",
         "--depth", "2", "--out", str(out), "--report", str(rep)]
    )
    assert code == 1
    (record,) = read_jsonl(rep)
    assert record["violation"] == "agreement"
    # the counterexample trace replays cleanly
    assert run_cli(["validate", str(out)]) == 0


def test_check_exhaustive_depth_four_clean(tmp_path):
    code = run_cli(
        ["check", "--protocol", "phase-king-lite", "--n", "3", "--mode", "exhaustive",
         "--depth", "4"]
    )
    assert code == 0


def test_check_budget_exit_four(tmp_path):
    # The search builds 990 distinct children: a budget of 989 refuses.
    argv = ["check", "--protocol", "phase-king-lite", "--n", "3", "--mode", "exhaustive",
            "--depth", "9", "--budget"]
    assert run_cli([*argv, "989"]) == 4
    assert run_cli([*argv, "990"]) == 0


def test_check_budget_counts_children_not_fault_sequences(tmp_path):
    # 17,318,400 fault sequences, but the search builds 1,775 distinct children.
    code = run_cli(["check", "--protocol", "phase-king-lite", "--n", "4", "--depth", "4"])
    assert code == 0


def _limit_address_space():
    limit = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_check_budget_refuses_wide_fanout_at_once(tmp_path):
    # At n = 18 one expansion walks 18 * 2**17 canonical faults; listing them
    # alone does not fit in 1.5 GB.  The search builds distinct children as
    # it goes, so it refuses at its budget, within the second input vector.
    start = time.monotonic()
    proc = run_adversim(
        ["check", "--protocol", "phase-king-lite", "--n", "18", "--depth", "1",
         "--budget", "1000"],
        tmp_path,
        preexec_fn=_limit_address_space,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.splitlines() == [
        "adversim: search would build more children than budget 1000"
    ]
    assert elapsed < 2


def test_check_fuzz_requires_seed():
    code = run_cli(["check", "--protocol", "phase-king-lite", "--n", "3", "--mode", "fuzz"])
    assert code == 64


def test_check_fuzz_runs(tmp_path):
    code = run_cli(
        ["check", "--protocol", "phase-king-lite", "--n", "4", "--mode", "fuzz",
         "--runs", "300", "--depth", "12", "--seed", "9"]
    )
    assert code == 0


# -- run ------------------------------------------------------------------------


def test_run_silent_adversary_decides(tmp_path):
    out = tmp_path / "run.jsonl"
    code = run_cli(
        ["run", "--model", "fts", "--adversary", "silent:1", "--protocol", "phase-king-lite",
         "--n", "3", "--inputs", "1,0,0", "--horizon", "6", "--out", str(out)]
    )
    assert code == 0
    assert run_cli(["validate", str(out)]) == 0
    lines = read_jsonl(out)
    outputs = {}
    for line in lines[1:]:
        outputs.update(line["outputs"])
    assert len(outputs) == 3  # everyone decided within 6 rounds


def test_run_silences_process_zero(tmp_path):
    out = tmp_path / "run.jsonl"
    code = run_cli(
        ["run", "--model", "fts", "--adversary", "silent:0", "--protocol", "phase-king-lite",
         "--n", "3", "--inputs", "1,0,0", "--horizon", "6", "--out", str(out)]
    )
    assert code == 0
    steps = read_jsonl(out)[1:]
    assert [(step["sender"], step["victims"]) for step in steps] == [(0, [1, 2])] * 6
    assert run_cli(["validate", str(out)]) == 0


def test_run_flp_model_with_stack_protocol(tmp_path):
    out = tmp_path / "flp.jsonl"
    code = run_cli(
        ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
         "--inputs", "1,0,1", "--horizon", "150", "--scheduler", "round-robin",
         "--fairness-window", "12", "--out", str(out)]
    )
    assert code == 0
    assert run_cli(["validate", str(out)]) == 0


def test_run_fts_on_an_ftr_stack(tmp_path):
    """Every fts fault is an ftr fault, so a stack whose outermost engine is
    ftr also runs under fts."""
    out = tmp_path / "t.jsonl"
    code = run_cli(
        ["run", "--model", "fts", "--protocol", "flp-over-ftr:phase-king-lite", "--n", "4",
         "--inputs", "1,0,0,1", "--adversary", "silent:1", "--horizon", "12", "--out", str(out)]
    )
    assert code == 0
    assert read_jsonl(out)[0]["model"] == "fts"
    assert run_cli(["validate", str(out)]) == 0


def test_run_round_protocol_under_flp_is_usage_error(tmp_path):
    code = run_cli(
        ["run", "--model", "flp", "--protocol", "phase-king-lite", "--n", "3",
         "--inputs", "1,0,1"]
    )
    assert code == 64


def test_run_with_scripted_adversary_file(tmp_path):
    script = tmp_path / "adv.jsonl"
    script.write_text(
        json.dumps({"round": 1, "sender": 0, "victims": [1, 2], "outputs": {}}) + "\n"
    )
    out = tmp_path / "t.jsonl"
    code = run_cli(
        ["run", "--model", "fts", "--protocol", "phase-king-lite", "--n", "3",
         "--inputs", "1,0,0", "--horizon", "4", "--adversary", f"script:{script}",
         "--out", str(out)]
    )
    assert code == 0
    first_step = read_jsonl(out)[1]
    assert first_step["sender"] == 0 and first_step["victims"] == [1, 2]


def test_run_with_scripted_scheduler_file(tmp_path):
    # record an asynchronous run, then play its event sequence back from a file
    recorded = tmp_path / "recorded.jsonl"
    code = run_cli(
        ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
         "--inputs", "1,0,1", "--horizon", "60", "--scheduler", "round-robin",
         "--out", str(recorded)]
    )
    assert code == 0
    script = tmp_path / "sched.jsonl"
    script.write_text("\n".join(recorded.read_text().splitlines()[1:]) + "\n")
    replayed = tmp_path / "replayed.jsonl"
    code = run_cli(
        ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
         "--inputs", "1,0,1", "--horizon", "60", "--scheduler", f"script:{script}",
         "--out", str(replayed)]
    )
    assert code == 0
    assert replayed.read_bytes() == recorded.read_bytes()


@pytest.mark.parametrize(
    "model, protocol, flag",
    [("fts", "phase-king-lite", "--adversary"),
     ("flp", "ftr-over-flp:phase-king-lite", "--scheduler")],
    ids=["fts", "flp"],
)
def test_script_path_may_contain_a_colon(tmp_path, model, protocol, flag):
    # only the first colon ends "script:"; the rest of the spec is the path
    def run(spec, out, *extra):
        args = ["run", "--model", model, "--protocol", protocol, "--n", "3",
                "--inputs", "1,0,1", "--horizon", "12", flag, spec, "--out", str(out), *extra]
        return run_cli(args)

    recorded = tmp_path / "recorded.jsonl"
    assert run("random", recorded, "--seed", "3") == 0
    steps = "\n".join(recorded.read_text().splitlines()[1:]) + "\n"
    outs = []
    for name in ("ab.jsonl", "a:b.jsonl"):
        (tmp_path / name).write_text(steps)
        outs.append(tmp_path / f"{name}.out")
        assert run(f"script:{tmp_path / name}", outs[-1]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == recorded.read_bytes()


# -- validate ---------------------------------------------------------------------


def test_validate_corrupted_trace_exit_five(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    run_cli(
        ["run", "--model", "fts", "--adversary", "none", "--protocol", "phase-king-lite",
         "--n", "3", "--inputs", "1,0,0", "--horizon", "4", "--out", str(out)]
    )
    lines = out.read_text().splitlines()
    # flip a recorded output value in the deciding round
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("outputs"):
            pid = next(iter(record["outputs"]))
            record["outputs"][pid] = 1 - record["outputs"][pid]
            lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            break
    out.write_text("\n".join(lines) + "\n")
    assert run_cli(["validate", str(out)]) == 5
    assert "diverge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper",
    ["flip-output", "not-in-flight", "crash-delivers", "pid-out-of-range", "crashed-steps",
     "second-crash", "output-pid-out-of-range"],
)
def test_validate_tampered_flp_trace_exit_five(tmp_path, capsys, tamper):
    out = tmp_path / "flp.jsonl"
    assert run_cli(
        ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite",
         "--scheduler", "round-robin", "--n", "3", "--inputs", "1,0,1", "--horizon", "20",
         "--out", str(out)]
    ) == 0
    header, *steps = read_jsonl(out)
    if tamper == "flip-output":
        i = next(i for i, step in enumerate(steps) if step["outputs"])
        ((pid, value),) = steps[i]["outputs"].items()
        steps[i]["outputs"][pid] = 1 - value
        problem = (
            f"step {i + 1}: recorded outputs {{{pid}: {1 - value}}} "
            f"diverge from replayed {{{pid}: {value}}}"
        )
    elif tamper == "not-in-flight":
        steps[0]["deliver"] = 999
        problem = "replay failed: message 999 is not in flight"
    elif tamper == "crash-delivers":
        assert steps[-1]["deliver"] is not None
        steps[-1]["crash"] = True  # the last step, so the crashed process steps no more
        problem = "replay failed: a crash event delivers nothing"
    elif tamper == "pid-out-of-range":
        steps[0]["pid"] = 7
        problem = "replay failed: pid 7 out of range"
    elif tamper == "crashed-steps":
        pid = steps[-1]["pid"]
        crash = {"event": "step", "pid": pid, "crash": True, "deliver": None, "outputs": {}}
        steps.insert(-1, crash)  # so the last step is a crashed process's
        problem = f"replay failed: crashed process {pid} cannot step"
    elif tamper == "second-crash":
        steps[0]["crash"] = True
        steps[1].update(crash=True, deliver=None)
        problem = "replay failed: second crash (1); 0 already crashed"
    else:
        assert not steps[0]["outputs"]
        steps[0]["outputs"] = {"7": 1}  # no such process: the replay writes nothing for it
        problem = "step 1: recorded outputs {7: 1} diverge from replayed {}"
    out.write_text("".join(json.dumps(record) + "\n" for record in [header, *steps]))
    capsys.readouterr()
    assert run_cli(["validate", str(out)]) == 5
    assert capsys.readouterr().err == f"validate: {problem}\n"


@pytest.mark.parametrize(
    "model, tamper, problem",
    [
        ("fts", {"victims": [0, 7]}, "replay failed: fault victims [7] out of range for n=3"),
        ("ftr", {"dropped": {"2": 2}}, "replay failed: process 2 cannot drop its own message"),
        ("fts", {"sender": 3}, "replay failed: fault sender 3 out of range for n=3"),
        ("ftr", {"dropped": {"1": 5}}, "replay failed: drop (1,5) out of range for n=3"),
    ],
    ids=["fts-victim-out-of-range", "ftr-self-drop", "fts-sender-equals-n",
         "ftr-drop-out-of-range"],
)
def test_validate_tampered_round_trace_exit_five(tmp_path, capsys, model, tamper, problem):
    out = _recorded_trace(tmp_path, model)
    header, *steps = read_jsonl(out)
    steps[1].update(tamper)
    out.write_text("".join(json.dumps(record) + "\n" for record in [header, *steps]))
    capsys.readouterr()
    assert run_cli(["validate", str(out)]) == 5
    assert capsys.readouterr().err == f"validate: {problem}\n"


@pytest.mark.parametrize(
    "model, protocol", [("fts", "ftr-over-flp:phase-king-lite"), ("flp", "phase-king-lite")]
)
def test_validate_protocol_on_the_wrong_model_exit_five(tmp_path, capsys, model, protocol):
    out = _recorded_trace(tmp_path, model)
    header, *steps = read_jsonl(out)
    header["protocol"] = protocol
    out.write_text("".join(json.dumps(record) + "\n" for record in [header, *steps]))
    capsys.readouterr()
    assert run_cli(["validate", str(out)]) == 5
    assert capsys.readouterr().err == (
        f"validate: protocol {protocol!r} does not run on the {model} model\n"
    )


def test_validate_renumbered_rounds_exit_five(tmp_path, capsys):
    out = _recorded_trace(tmp_path, "fts")
    header, *steps = read_jsonl(out)
    for step in steps[1:]:
        step["round"] += 1  # rounds 1, 3, 4, 5, ...
    out.write_text("".join(json.dumps(record) + "\n" for record in [header, *steps]))
    capsys.readouterr()
    assert run_cli(["validate", str(out)]) == 5
    assert capsys.readouterr().err.splitlines() == [
        f"validate: step {i}: expected round {i}, found {i + 1}" for i in range(2, len(steps) + 1)
    ]


def test_validate_header_with_one_process_exit_five(tmp_path, capsys):
    # constant-1 runs at any n, so only the header check refuses n = 1
    trace = tmp_path / "one.jsonl"
    trace.write_text('{"inputs":[1],"model":"fts","n":1,"protocol":"constant-1"}\n')
    capsys.readouterr()
    assert run_cli(["validate", str(trace)]) == 5
    assert capsys.readouterr().err == "adversim: bad n 1\n"


def test_validate_garbage_file_exit_five(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a trace\n")
    assert run_cli(["validate", str(bad)]) == 5


def test_validate_missing_file_exit_five(tmp_path):
    assert run_cli(["validate", str(tmp_path / "absent.jsonl")]) == 5


# -- simulate ---------------------------------------------------------------------


def test_simulate_getcore_report(tmp_path):
    rep = tmp_path / "rep.jsonl"
    code = run_cli(
        ["simulate", "--stack", "fts-over-ftr", "--protocol", "phase-king-lite", "--n", "3",
         "--inputs", "1,0,0", "--adversary", "silent:2", "--horizon", "9",
         "--out", str(tmp_path / "t.jsonl"), "--report", str(rep)]
    )
    assert code == 0
    records = read_jsonl(rep)
    sim_rounds = [r for r in records if "sim_round" in r]
    assert len(sim_rounds) == 3
    assert all(r["core_size"] >= 2 for r in sim_rounds)
    assert records[-1] == {"equivalent_direct_run": True}


def test_simulate_synchronizer_projection(tmp_path):
    rep = tmp_path / "rep.jsonl"
    code = run_cli(
        ["simulate", "--stack", "ftr-over-flp", "--protocol", "phase-king-lite", "--n", "4",
         "--inputs", "1,0,1,0", "--scheduler", "random", "--seed", "21", "--crash", "3:50",
         "--horizon", "700", "--out", str(tmp_path / "t.jsonl"), "--report", str(rep)]
    )
    assert code == 0
    (record,) = read_jsonl(rep)
    assert record["projection_valid"] is True
    assert record["crashed"] == 3


def test_simulate_piggyback_ledger(tmp_path):
    rep = tmp_path / "rep.jsonl"
    code = run_cli(
        ["simulate", "--stack", "flp-over-ftr", "--protocol", "phase-king-lite", "--n", "3",
         "--inputs", "1,1,0", "--adversary", "none", "--horizon", "20",
         "--out", str(tmp_path / "t.jsonl"), "--report", str(rep)]
    )
    assert code == 0
    records = read_jsonl(rep)
    assert records
    assert all(r["lag"] is None or r["lag"] <= 1 for r in records)


def test_simulate_unfaithful_audit_exits_one_with_report(tmp_path, monkeypatch, capsys):
    from adversim import simulations

    records = [{"equivalent_direct_run": False}]
    # simulate looks audit_stack up in simulations when it runs
    monkeypatch.setattr(
        simulations, "audit_stack",
        lambda protocol, result: simulations.StackAudit(records, False, "x"),
    )
    rep = tmp_path / "rep.jsonl"
    code = run_cli(
        ["simulate", "--stack", "fts-over-ftr", "--protocol", "phase-king-lite", "--n", "3",
         "--inputs", "1,0,0", "--horizon", "9", "--out", str(tmp_path / "t.jsonl"),
         "--report", str(rep)]
    )
    assert code == 1
    assert read_jsonl(rep) == records
    assert (tmp_path / "t.jsonl").exists()
    assert capsys.readouterr().err.splitlines()[0] == "simulate: x"


def test_simulate_out_of_model_synchronized_round_exits_one(tmp_path, monkeypatch, capsys):
    from adversim.simulations import SynchronizerWrapper

    init = SynchronizerWrapper.__init__

    def advance_early(self, inner, n):
        init(self, inner, n)
        self.n = n - 1  # advance on n-3 current-round messages

    monkeypatch.setattr(SynchronizerWrapper, "__init__", advance_early)
    code = run_cli(
        ["simulate", "--stack", "ftr-over-flp", "--protocol", "phase-king-lite", "--n", "4",
         "--seed", "3", "--out", str(tmp_path / "t.jsonl"), "--report", str(tmp_path / "r.jsonl")]
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "adversim: process 0 missed 2 senders in round 1"
    ]
    assert (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("relay", [True, False], ids=["relay", "no-relay"])
def test_simulate_piggyback_relay_bound(tmp_path, monkeypatch, capsys, relay):
    from adversim.simulations import PiggybackWrapper

    if not relay:  # each process passes on its own send log only
        monkeypatch.setattr(PiggybackWrapper, "message", lambda self, internal, round: tuple(
            log if s == internal.pid else () for s, log in enumerate(internal.logs)))
    # process 2 misses process 0 in rounds 2 and 3, so 0's round-1 broadcast
    # reaches 1 in round 2 and reaches 2 in round 3 only through 1's relay
    script = tmp_path / "adv.jsonl"
    script.write_text("".join(
        json.dumps({"round": r, "dropped": {"2": 0} if r in (2, 3) else {}, "outputs": {}})
        + "\n" for r in range(1, 7)))
    code = run_cli(
        ["simulate", "--stack", "flp-over-ftr", "--protocol", "phase-king-lite", "--n", "3",
         "--inputs", "1,1,0", "--adversary", f"script:{script}", "--horizon", "6",
         "--out", str(tmp_path / "t.jsonl"), "--report", str(tmp_path / "r.jsonl")]
    )
    summary = capsys.readouterr().err.splitlines()[0]
    if relay:
        assert code == 0 and summary.endswith("not fully delivered")
    else:
        assert code == 1 and summary.endswith(", 1 broadcasts past the relay bound")


# -- reproducibility ----------------------------------------------------------------


def test_outdir_env_variable(tmp_path):
    code = run_cli(
        ["attack", "--protocol", "phase-king-lite", "--n", "3", "--rounds", "3"],
        env_extra={"ADVERSIM_OUTDIR": str(tmp_path)},
    )
    assert code == 0
    assert (tmp_path / "attack.trace.jsonl").exists()
    assert (tmp_path / "attack.report.jsonl").exists()


def test_seeded_commands_byte_identical_across_processes(tmp_path):
    # fresh interpreters get different hash seeds; emitted artifacts must not care
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        proc = run_adversim(
            ["run", "--model", "ftr", "--protocol", "fts-over-ftr:phase-king-lite",
             "--n", "3", "--seed", "1234", "--adversary", "random", "--horizon", "21",
             "--out", "trace.jsonl"],
            cwd=tmp_path / d,
        )
        assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "a" / "trace.jsonl").read_bytes()
    b = (tmp_path / "b" / "trace.jsonl").read_bytes()
    assert a == b


def test_parser_built_once_and_calls_share_no_state(tmp_path, monkeypatch, capsys):
    """After its first call, ``main`` reuses one parser, and each later call
    exits and reports as the same command does in a fresh process: a flag of
    one call is never a default of the next."""
    run_cli(["validate", "missing.jsonl"], cwd=tmp_path)
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    check = ["check", *_PK3, "--depth", "2"]
    run = ["run", "--model", "fts", *_PK3, "--inputs", "1,0,0", "--adversary", "random",
           "--seed", "1", "--horizon", "4", "--out", "t.jsonl"]
    codes, traces = [], []
    for args in ([*check, "--mode", "fuzz", "--seed", "3", "--runs", "5"],
                 [*check, "--mode", "exhaustive"], [*run, "--restricted"], run):
        capsys.readouterr()
        codes.append(run_cli(args, cwd=tmp_path))
        err = capsys.readouterr().err
        trace = (tmp_path / "t.jsonl").read_bytes() if args[0] == "run" else None
        fresh = run_adversim(args, tmp_path)
        assert (codes[-1], err) == (fresh.returncode, fresh.stderr), args
        if trace is not None:
            assert trace == (tmp_path / "t.jsonl").read_bytes(), args
            traces.append(trace)
    assert built == []
    assert codes == [0, 0, 0, 0]
    assert traces[0] != traces[1]  # the restricted run drew other faults


# -- bad input fails closed ---------------------------------------------------------

_RUNS = {
    "fts": ["--model", "fts", "--adversary", "silent:1"],
    "ftr": ["--model", "ftr", "--adversary", "silent:1"],
    "flp": ["--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite",
            "--scheduler", "round-robin"],
}


def _recorded_trace(tmp_path, model):
    out = tmp_path / f"{model}.jsonl"
    args = ["run", "--protocol", "phase-king-lite", *_RUNS[model], "--n", "3",
            "--inputs", "1,0,0", "--horizon", "6", "--out", str(out)]
    assert run_cli(args) == 0
    return out


NOT_UTF8 = bytes.fromhex("fffe00626164")


def _assert_fails_closed(args, cwd, code):
    proc = run_adversim(args, cwd)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    return proc


@pytest.mark.parametrize(
    "model, line, key, value",
    [
        ("fts", 1, "victims", 5),
        ("fts", 1, "victims", [1.5]),
        ("fts", 1, "round", "1"),
        ("fts", 1, "sender", True),
        ("fts", 1, "sender", "a"),
        ("fts", 1, "outputs", {"0": True}),
        ("ftr", 1, "dropped", {"1": "2"}),
        ("ftr", 1, "dropped", [1]),
        ("ftr", 1, "round", 1.0),
        ("flp", 1, "pid", "x"),
        ("flp", 1, "pid", True),
        ("flp", 2, "deliver", "0"),
        ("flp", 1, "crash", 0),
        ("fts", 0, "inputs", 5),
        ("fts", 0, "inputs", [True, False, False]),
        ("fts", 0, "n", True),
        ("fts", 0, "protocol", 7),
    ],
)
def test_validate_mistyped_field_exit_five(tmp_path, model, line, key, value):
    trace = _recorded_trace(tmp_path, model)
    lines = trace.read_text().splitlines()
    record = json.loads(lines[line])
    record[key] = value
    lines[line] = json.dumps(record)
    trace.write_text("\n".join(lines) + "\n")
    _assert_fails_closed(["validate", str(trace)], tmp_path, 5)


@pytest.mark.parametrize(
    "model, script_line",
    [
        ("fts", "[1]"),
        ("fts", '{"round":1,"sender":true,"victims":[1]}'),
        ("ftr", '"dropped"'),
        ("flp", "[1]"),
        ("flp", '{"event":"step","pid":0,"deliver":null,"crash":"no"}'),
        ("fts", NOT_UTF8),
    ],
)
def test_malformed_step_script_exit_five(tmp_path, model, script_line):
    script = tmp_path / "script.jsonl"
    if isinstance(script_line, bytes):
        script.write_bytes(script_line)
    else:
        script.write_text(script_line + "\n")
    args = ["run", "--protocol", "phase-king-lite", *_RUNS[model], "--n", "3",
            "--inputs", "1,0,0", "--horizon", "4", "--out", str(tmp_path / "t.jsonl")]
    flag = "--scheduler" if model == "flp" else "--adversary"
    args[args.index(flag) + 1] = f"script:{script}"
    _assert_fails_closed(args, tmp_path, 5)


@pytest.mark.parametrize("stack", ["fts", "fts-over-flp", "ftr-over-xyz", "fts-over-"])
def test_simulate_malformed_stack_exit_three(tmp_path, stack):
    args = ["simulate", "--stack", stack, "--protocol", "phase-king-lite", "--n", "3",
            "--inputs", "1,0,0", "--horizon", "6"]
    _assert_fails_closed(args, tmp_path, 3)


def test_validate_trace_with_malformed_stack_protocol_exit_three(tmp_path):
    trace = _recorded_trace(tmp_path, "fts")
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["protocol"] = "phase-king-lite:x"
    lines[0] = json.dumps(header)
    trace.write_text("\n".join(lines) + "\n")
    _assert_fails_closed(["validate", str(trace)], tmp_path, 3)


@pytest.mark.parametrize("command", ["validate", "script"])
@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_trace_or_script_path_exit_five(tmp_path, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(NOT_UTF8)
    if command == "validate":
        args = ["validate", str(path)]
    else:
        args = ["run", "--protocol", "phase-king-lite", *_RUNS["fts"], "--n", "3",
                "--inputs", "1,0,0", "--adversary", f"script:{path}",
                "--out", str(tmp_path / "t.jsonl")]
    _assert_fails_closed(args, tmp_path, 5)


def test_validate_trace_at_unsupported_size_exit_five(tmp_path):
    trace = tmp_path / "small.jsonl"
    trace.write_text('{"inputs":[1,0],"model":"fts","n":2,"protocol":"phase-king-lite"}\n')
    _assert_fails_closed(["validate", str(trace)], tmp_path, 5)


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--model", "fts", "--protocol", "phase-king-lite", "--n", "2", "--inputs", "1,0"],
        ["attack", "--protocol", "phase-king-lite", "--n", "1"],
        ["check", "--protocol", "naive-majority", "--n", "2"],
        ["simulate", "--stack", "fts-over-ftr", "--protocol", "phase-king-lite", "--n", "2",
         "--inputs", "1,0"],
        ["simulate", "--stack", "fts-over-ftr", "--protocol", "constant-0", "--n", "2",
         "--inputs", "1,0"],
    ],
    ids=["run", "attack", "check", "simulate", "simulate-wrapper"],
)
def test_protocol_size_error_is_usage_error(tmp_path, args):
    _assert_fails_closed(args, tmp_path, 64)


def _flp_step(pid, deliver=None, crash=False):
    return json.dumps({"event": "step", "pid": pid, "deliver": deliver, "crash": crash})


@pytest.mark.parametrize(
    "command, script",
    [
        ("run", [_flp_step(0, deliver=7)]),
        ("run", [_flp_step(0), _flp_step(2, deliver=0)]),
        ("run", [_flp_step(1, crash=True), _flp_step(1)]),
        ("run", [_flp_step(1, crash=True), _flp_step(2, crash=True)]),
        ("run", [_flp_step(0)]),
        ("simulate", [_flp_step(0, deliver=7)]),
    ],
    ids=["not-in-flight", "wrong-addressee", "crashed-steps", "second-crash", "exhausted",
         "simulate"],
)
def test_scheduler_script_error_exit_five(tmp_path, command, script):
    path = tmp_path / "sched.jsonl"
    path.write_text("\n".join(script) + "\n")
    if command == "run":
        args = ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite"]
    else:
        args = ["simulate", "--stack", "ftr-over-flp", "--protocol", "phase-king-lite"]
    args += ["--n", "4", "--inputs", "1,0,1,0", "--horizon", "5",
             "--scheduler", f"script:{path}", "--out", str(tmp_path / "t.jsonl")]
    _assert_fails_closed(args, tmp_path, 5)


@pytest.mark.parametrize("flag", ["--out", "--report"])
@pytest.mark.parametrize("kind", ["directory", "missing-directory"])
def test_unwritable_artefact_path_is_usage_error(tmp_path, flag, kind):
    target = "." if kind == "directory" else os.path.join("nodir", "x.jsonl")
    args = ["attack", "--protocol", "phase-king-lite", "--n", "3", "--rounds", "2",
            "--out", "t.jsonl", "--report", "r.jsonl"]
    args[args.index(flag) + 1] = target
    proc = run_adversim(args, tmp_path)
    assert proc.returncode == 64, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert repr(target) in proc.stderr or target in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--model", "fts", "--protocol", "constant-0", "--n", "1", "--inputs", "1"],
        ["run", "--model", "ftr", "--protocol", "constant-1", "--n", "0", "--seed", "1"],
        ["attack", "--protocol", "constant-0", "--n", "1"],
        ["check", "--protocol", "constant-0", "--n", "1"],
    ],
    ids=["run-fts", "run-ftr", "attack", "check"],
)
def test_too_few_processes_is_usage_error(tmp_path, args):
    _assert_fails_closed(args, tmp_path, 64)


def test_crash_directive_out_of_range_is_usage_error(tmp_path):
    args = ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
            "--inputs", "1,0,1", "--crash", "7:3", "--out", str(tmp_path / "t.jsonl")]
    _assert_fails_closed(args, tmp_path, 64)


def test_crash_directive_negative_step_is_usage_error(tmp_path):
    args = ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
            "--inputs", "1,0,1", "--crash", "0:-5", "--out", str(tmp_path / "t.jsonl")]
    _assert_fails_closed(args, tmp_path, 64)


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite"],
        ["simulate", "--stack", "ftr-over-flp", "--protocol", "phase-king-lite"],
    ],
    ids=["run", "simulate"],
)
def test_crash_directive_with_scheduler_script_is_usage_error(tmp_path, args):
    # A script crashes a process through its own "crash" events; a --crash
    # directive next to it would be ignored.
    (tmp_path / "S.jsonl").write_text(_flp_step(0) + "\n" + _flp_step(1) + "\n")
    args = [*args, "--n", "3", "--inputs", "1,0,1", "--scheduler", "script:S.jsonl",
            "--crash", "0:0", "--horizon", "2", "--out", "t.jsonl"]
    proc = _assert_fails_closed(args, tmp_path, 64)
    assert "--crash" in proc.stderr, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["S.jsonl"]


_PK3 = ["--protocol", "phase-king-lite", "--n", "3"]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["check", "--mode", "fuzz", "--seed", "1", *_PK3, "--runs", "-5"], "--runs"),
        (["check", "--mode", "fuzz", "--seed", "1", *_PK3, "--runs", "0"], "--runs"),
        (["check", "--mode", "fuzz", "--seed", "1", *_PK3, "--depth", "-3"], "--depth"),
        (["check", *_PK3, "--depth", "-1"], "--depth"),
        (["run", "--model", "fts", *_PK3, "--inputs", "1,0,0", "--horizon", "-1"], "--horizon"),
        (["simulate", "--stack", "fts-over-ftr", *_PK3, "--inputs", "1,0,0", "--horizon", "-1"],
         "--horizon"),
        (["attack", *_PK3, "--rounds", "0"], "--rounds"),
        (["attack", *_PK3, "--cap", "0"], "--cap"),
        (["check", *_PK3, "--budget", "-5"], "--budget"),
        (["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
          "--inputs", "1,0,1", "--horizon", "10", "--fairness-window", "-1"],
         "--fairness-window"),
    ],
    ids=["fuzz-runs-negative", "fuzz-runs-zero", "fuzz-depth", "exhaustive-depth",
         "run-horizon", "simulate-horizon", "attack-rounds", "attack-cap", "check-budget",
         "fairness-window"],
)
def test_count_below_minimum_is_usage_error(tmp_path, args, flag):
    proc = run_adversim([*args, "--out", "t.jsonl"], tmp_path)
    assert proc.returncode == 64, proc.stderr
    assert "Traceback" not in proc.stderr
    assert flag in proc.stderr.strip().splitlines()[-1], proc.stderr
    assert not (tmp_path / "t.jsonl").exists()


_FLP3 = ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
         "--inputs", "1,0,1"]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["run", "--model", "fts", *_PK3, "--inputs", "1,x,0"], "--inputs"),
        (["run", "--model", "fts", *_PK3, "--inputs", "1,0"], "--inputs"),
        (["run", "--model", "fts", *_PK3], "--inputs"),
        (["run", "--model", "fts", *_PK3, "--inputs", "1,0,0", "--adversary", "silent:x"],
         "--adversary"),
        (["run", "--model", "fts", *_PK3, "--inputs", "1,0,0", "--adversary", "silent:3"],
         "--adversary"),
        (["run", "--model", "fts", *_PK3, "--inputs", "1,0,0", "--adversary", "random"],
         "--adversary"),
        ([*_FLP3, "--scheduler", "random"], "--scheduler"),
        ([*_FLP3, "--crash", "1"], "--crash"),
        ([*_FLP3, "--crash", "a:3"], "--crash"),
    ],
    ids=["inputs-not-bits", "inputs-too-few", "no-inputs-or-seed", "silent-not-an-integer",
         "silent-out-of-range", "adversary-random-without-seed", "scheduler-random-without-seed",
         "crash-one-field", "crash-not-an-integer"],
)
def test_malformed_spec_is_usage_error_naming_its_flag(tmp_path, capsys, args, flag):
    assert run_cli([*args, "--out", str(tmp_path / "t.jsonl")]) == 64
    (line,) = capsys.readouterr().err.splitlines()
    assert flag in line, line
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("runs, depth", [(0, 4), (-5, 4), (10, 0)])
def test_check_fuzz_rejects_bad_counts(runs, depth):
    from adversim.checking import check_fuzz
    from adversim.core import AdversimError
    from adversim.protocols import PhaseKingLite

    with pytest.raises(AdversimError, match="must be >= 1"):
        check_fuzz(PhaseKingLite(3), 3, runs=runs, depth=depth, seed=1)


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--mode", "exhaustive", "--model", "ftr", *_PK3],
        ["check", "--mode", "fuzz", "--seed", "1", "--model", "ftr", *_PK3],
        ["run", "--model", "ftr", *_PK3, "--inputs", "1,0,0"],
        ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
         "--inputs", "1,0,1"],
    ],
    ids=["check-exhaustive-ftr", "check-fuzz-ftr", "run-ftr", "run-flp"],
)
def test_restricted_outside_fts_is_usage_error(tmp_path, args):
    proc = run_adversim([*args, "--restricted", "--out", "t.jsonl"], tmp_path)
    assert proc.returncode == 64, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "--restricted" in lines[0], proc.stderr
    assert not (tmp_path / "t.jsonl").exists()


_RESTRICTED_RUN = ["run", "--model", "fts", *_PK3, "--inputs", "0,1,1", "--horizon", "4",
                   "--out", "t.jsonl"]


def _fault_script(path, faults):
    path.write_text("".join(
        json.dumps({"round": r, "sender": s, "victims": v, "outputs": {}}) + "\n"
        for r, (s, v) in enumerate(faults, 1)
    ))


@pytest.mark.parametrize(
    "adversary, line",
    [
        ("silent:0", "--restricted forbids full silence: --adversary silent:0"),
        ("script:adv.jsonl",
         "--restricted forbids full silence: --adversary script:adv.jsonl fault 2"),
    ],
    ids=["silent", "script"],
)
def test_restricted_run_refuses_full_silence(tmp_path, adversary, line):
    _fault_script(tmp_path / "adv.jsonl", [(0, [1]), (2, [0, 1]), (1, [0, 2])])
    args = [*_RESTRICTED_RUN, "--adversary", adversary]
    proc = _assert_fails_closed([*args, "--restricted"], tmp_path, 64)
    assert proc.stderr == f"adversim: {line}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adv.jsonl"]
    assert run_adversim(args, tmp_path).returncode == 0  # the model without --restricted runs it


@pytest.mark.parametrize(
    "adversary", [["random", "--seed", "1"], ["script:adv.jsonl"]], ids=["random", "script"]
)
def test_restricted_run_keeps_in_model_faults(tmp_path, adversary):
    _fault_script(tmp_path / "adv.jsonl", [(0, [1]), (2, [0]), (1, [])])
    proc = run_adversim([*_RESTRICTED_RUN, "--adversary", *adversary, "--restricted"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    steps = read_jsonl(tmp_path / "t.jsonl")[1:]
    assert len(steps) == 4 and all(len(s["victims"]) < 2 for s in steps)


_SYNC3 = ["--protocol", "ftr-over-flp:phase-king-lite", "--n", "3"]


@pytest.mark.parametrize(
    "args, code",
    [
        (["attack", *_SYNC3], 64),
        (["check", "--mode", "exhaustive", *_SYNC3], 64),
        (["check", "--mode", "fuzz", "--seed", "1", *_SYNC3], 64),
        (["simulate", "--stack", "ftr-over-flp", *_SYNC3, "--inputs", "1,0,1"], 3),
    ],
    ids=["attack", "check-exhaustive", "check-fuzz", "simulate"],
)
def test_protocol_of_the_wrong_kind_fails_closed(tmp_path, args, code):
    proc = run_adversim([*args, "--out", "t.jsonl"], tmp_path)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "is asynchronous" in lines[0], proc.stderr
    assert not (tmp_path / "t.jsonl").exists()


_OUT = ["--out", "t.jsonl", "--report", "r.jsonl"]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["run", "--model", "fts", *_PK3, "--inputs", "1,0,0", "--crash", "0:1",
          "--scheduler", "bogus", "--fairness-window", "3", "--out", "t.jsonl"], "--scheduler"),
        (["simulate", "--stack", "fts-over-ftr", *_PK3, "--inputs", "1,0,0", "--crash", "0:1",
          "--scheduler", "random", *_OUT], "--scheduler"),
        (["simulate", "--stack", "ftr-over-flp", "--protocol", "phase-king-lite", "--n", "4",
          "--inputs", "1,0,1,0", "--adversary", "bogus", *_OUT], "--adversary"),
        (["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
          "--inputs", "1,0,1", "--adversary", "bogus", "--out", "t.jsonl"], "--adversary"),
        (["simulate", "--stack", "flp-over-ftr", *_PK3, "--inputs", "1,0,0", "--crash", "0:1",
          *_OUT], "--crash"),
        (["run", "--model", "ftr", *_PK3, "--inputs", "1,0,0", "--fairness-window", "3",
          "--out", "t.jsonl"], "--fairness-window"),
        # a check mode's flags: --seed and --runs are fuzz only, --budget exhaustive only
        (["check", *_PK3, "--mode", "exhaustive", "--depth", "2", "--seed", "4", *_OUT],
         "--seed"),
        (["check", *_PK3, "--mode", "exhaustive", "--depth", "2", "--runs", "7", *_OUT],
         "--runs"),
        (["check", *_PK3, "--mode", "fuzz", "--runs", "10", "--seed", "1", "--budget", "5",
          *_OUT], "--budget"),
        # with --inputs given, only a random adversary or scheduler reads --seed
        (["run", "--model", "fts", *_PK3, "--inputs", "1,0,0", "--seed", "4",
          "--out", "t.jsonl"], "--seed"),
        (["simulate", "--stack", "fts-over-ftr", *_PK3, "--inputs", "1,0,0", "--seed", "4",
          *_OUT], "--seed"),
    ],
    ids=["run-fts", "simulate-fts-over-ftr", "simulate-ftr-over-flp", "run-flp",
         "simulate-flp-over-ftr-crash", "run-ftr-fairness-window", "check-exhaustive-seed",
         "check-exhaustive-runs", "check-fuzz-budget", "run-inputs-seed",
         "simulate-inputs-seed"],
)
def test_flag_the_engine_never_reads_fails_closed(tmp_path, args, flag):
    proc = _assert_fails_closed(args, tmp_path, 64)
    assert flag in proc.stderr, proc.stderr
    assert not any(tmp_path.iterdir())


def test_check_fuzz_rejects_restricted_ftr():
    from adversim.checking import check_fuzz
    from adversim.core import AdversimError
    from adversim.protocols import PhaseKingLite

    with pytest.raises(AdversimError, match="fail-to-send model only"):
        check_fuzz(PhaseKingLite(3), 3, runs=10, depth=4, seed=1, model="ftr", restricted=True)


def test_unexpected_exception_is_one_line_internal_error(monkeypatch, capsys):
    from adversim import checking

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(checking, "check_exhaustive", broken)
    assert run_cli(["check", *_PK3, "--depth", "1"]) == 70
    assert capsys.readouterr().err.splitlines() == ["adversim: internal error: RuntimeError: boom"]


@pytest.mark.parametrize("protocol", ["naive-majority", "flp-over-ftr:phase-king-lite"])
def test_attack_keeps_disagreeing_probe(tmp_path, protocol):
    proc = run_adversim(["attack", "--protocol", protocol, "--n", "3", "--rounds", "5"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert "violation.trace.jsonl" in last and "violation.report.jsonl" in last, proc.stderr
    (record,) = read_jsonl(tmp_path / "violation.report.jsonl")
    assert record["violation"] == "agreement"
    assert len(set(record["outputs"].values())) == 2
    validated = run_adversim(["validate", "violation.trace.jsonl"], tmp_path)
    assert validated.returncode == 0, validated.stderr
    outputs = {}
    for step in read_jsonl(tmp_path / "violation.trace.jsonl")[1:]:
        outputs.update(step["outputs"])
    assert len(set(outputs.values())) == 2


@pytest.mark.parametrize(
    "args, flag",
    [
        (["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
          "--inputs", "1,0,1", "--scheduler", "zigzag"], "--scheduler"),
        (["run", "--model", "fts", *_PK3, "--inputs", "1,0,0", "--adversary", "zigzag"],
         "--adversary"),
    ],
    ids=["scheduler", "adversary"],
)
def test_unknown_engine_spec_fails_closed(tmp_path, args, flag):
    proc = _assert_fails_closed([*args, "--out", "t.jsonl"], tmp_path, 64)
    assert "zigzag" in proc.stderr, proc.stderr
    assert not any(tmp_path.iterdir())


# -- the restricted attack stays inside its model -------------------------------


@pytest.fixture
def flood_min(monkeypatch):
    monkeypatch.setitem(protocols._REGISTRY, "flood-min", FloodMin)
    return ["--protocol", "flood-min"]


def test_restricted_attack_refuses_out_of_model_probe(tmp_path, capsys, flood_min):
    code = run_cli(["attack", *flood_min, "--n", "4", "--rounds", "5", "--restricted"],
                   env_extra={"ADVERSIM_OUTDIR": str(tmp_path)})
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "fault (sender 3, victims [0, 1, 2])" in line and "--restricted" in line, line
    assert "probe.trace.jsonl" in line, line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["probe.trace.jsonl"]
    steps = read_jsonl(tmp_path / "probe.trace.jsonl")[1:]
    assert steps and all((s["sender"], s["victims"]) == (3, [0, 1, 2]) for s in steps)


def test_unrestricted_attack_keeps_flooding_violation(tmp_path, flood_min):
    code = run_cli(["attack", *flood_min, "--n", "4", "--rounds", "5"],
                   env_extra={"ADVERSIM_OUTDIR": str(tmp_path)})
    assert code == 1
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["violation.report.jsonl", "violation.trace.jsonl"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_check_passes_flooding(tmp_path, flood_min, n):
    args = ["check", *flood_min, "--n", str(n), "--depth", "3", "--restricted"]
    assert run_cli(args, env_extra={"ADVERSIM_OUTDIR": str(tmp_path)}) == 0
    assert not any(tmp_path.iterdir())
