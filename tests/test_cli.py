"""Command-line contract: exit codes, artifacts, reproducibility."""

import json
import os
import resource
import time

import pytest

from adversim.cli import main
from conftest import run_adversim


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


def test_attack_exit_zero_and_artifacts(tmp_path):
    out = tmp_path / "t.jsonl"
    rep = tmp_path / "r.jsonl"
    code = run_cli(
        ["attack", "--protocol", "phase-king-lite", "--n", "3", "--rounds", "10",
         "--out", str(out), "--report", str(rep)]
    )
    assert code == 0
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
    code = run_cli(
        ["attack", "--protocol", "constant-0", "--n", "3", "--rounds", "5",
         "--out", str(tmp_path / "t.jsonl"), "--report", str(tmp_path / "r.jsonl")]
    )
    assert code != 0
    assert "no dependent initial configuration" in capsys.readouterr().err


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
    code = run_cli(
        ["check", "--protocol", "phase-king-lite", "--n", "3", "--mode", "exhaustive",
         "--depth", "9", "--budget", "1000"]
    )
    assert code == 4


def test_check_budget_counts_children_not_fault_sequences(tmp_path):
    # 17,318,400 fault sequences, but the search builds 18,144 children.
    code = run_cli(["check", "--protocol", "phase-king-lite", "--n", "4", "--depth", "4"])
    assert code == 0


def _limit_address_space():
    limit = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_check_budget_refuses_wide_fanout_at_once(tmp_path):
    # At n = 18 one expansion builds 18 * 2**17 children, over the default
    # budget; listing those faults alone does not fit in 1.5 GB.
    start = time.monotonic()
    proc = run_adversim(
        ["check", "--protocol", "phase-king-lite", "--n", "18", "--depth", "1"],
        tmp_path,
        preexec_fn=_limit_address_space,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.splitlines() == [
        "adversim: one expansion builds 2359296 children, over budget 2000000"
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


def test_run_flp_model_with_stack_protocol(tmp_path):
    out = tmp_path / "flp.jsonl"
    code = run_cli(
        ["run", "--model", "flp", "--protocol", "ftr-over-flp:phase-king-lite", "--n", "3",
         "--inputs", "1,0,1", "--horizon", "150", "--scheduler", "round-robin",
         "--fairness-window", "12", "--out", str(out)]
    )
    assert code == 0
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


@pytest.mark.parametrize("runs, depth", [(0, 4), (-5, 4), (10, 0)])
def test_check_fuzz_rejects_bad_counts(runs, depth):
    from adversim.checking import check_fuzz
    from adversim.core import AdversimError
    from adversim.protocols import phase_king_lite

    with pytest.raises(AdversimError, match="must be >= 1"):
        check_fuzz(phase_king_lite(3), 3, runs=runs, depth=depth, seed=1)


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


def test_check_fuzz_rejects_restricted_ftr():
    from adversim.checking import check_fuzz
    from adversim.core import AdversimError
    from adversim.protocols import phase_king_lite

    with pytest.raises(AdversimError, match="fail-to-send model only"):
        check_fuzz(phase_king_lite(3), 3, runs=10, depth=4, seed=1, model="ftr", restricted=True)


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
