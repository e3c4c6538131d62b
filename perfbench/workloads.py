"""Workload definitions: seeded job generation and per-job verification.

A job is one user task that ends in a certified artefact: one ``adversim``
command line, followed for ``attack`` by ``validate`` on the emitted trace.
Jobs are generated in blocks.  Every block of a workload holds the same mix
of job shapes (protocol, model, size), shuffled by the seed, and the seed
picks the free parameters inside each shape (``--seed`` of the adversary,
scheduler or fuzzer, the crashed process, the side ``attack`` rounds step to
first).  Cost per block therefore barely depends on the seed, while no two
jobs of a run are the same command line, so a cache keyed on a whole job
never turns a job into a lookup.  The first ``k`` blocks of a seed are the
same whatever the total block count, so the traced run's job set is a
prefix of the timed run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

PKL = "phase-king-lite"


@dataclass(frozen=True)
class Job:
    index: int
    kind: str  # attack | check | simulate | run
    argv: tuple[str, ...]
    expect: int  # exit code of the main command


@dataclass(frozen=True)
class Workload:
    block: Callable[[int, int], list[tuple]]  # (seed, block index) -> (kind, argv, expect)
    block_seconds: float  # nominal cost of one block, measured when the benchmark was added
    traced_blocks: int  # job set of the traced run


def _rng(seed: int, *parts) -> random.Random:
    text = "|".join(str(p) for p in (seed, *parts))
    return random.Random(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big"))


# ---------------------------------------------------------------------------
# attack: the constructive adversary, oracle probes stepping step_fts
# ---------------------------------------------------------------------------

ATTACK_NS = tuple(range(3, 17))
ATTACK_ROUNDS = 40


def _attack_rounds(seed: int, n: int, b: int) -> int:
    """Round count of block b's job for this n: 40, then alternately one
    more and one fewer step away from 40, the seed choosing the side that
    comes first.  Round counts are distinct per n, and every seed spends
    nearly the same rounds on each n."""
    if b == 0:
        return ATTACK_ROUNDS
    side = 1 if _rng(seed, "attack-side", n).random() < 0.5 else -1
    step = (b + 1) // 2
    return ATTACK_ROUNDS + (side if b % 2 else -side) * step


def _attack_block(seed: int, b: int) -> list[tuple]:
    order = list(ATTACK_NS)
    _rng(seed, "attack-block", b).shuffle(order)
    return [
        ("attack", ("attack", "--protocol", PKL, "--n", str(n),
                    "--rounds", str(_attack_rounds(seed, n, b))), 0)
        for n in order
    ]


# ---------------------------------------------------------------------------
# check: exhaustive and fuzz checking, positive targets and negative controls
# ---------------------------------------------------------------------------

# Passing exhaustive jobs, one per block in this fixed order (no seed enters
# an exhaustive check, so each shape can run once per run).  Costs alternate
# so that any prefix holds a similar mix.
CHECK_EXHAUSTIVE = (
    ("fts", 3, 4, False),
    ("fts", 4, 2, True),
    ("fts", 3, 3, False),
    ("fts", 5, 1, False),
    ("fts", 6, 1, False),
    ("fts", 3, 4, True),
    ("fts", 4, 2, False),
    ("ftr", 3, 2, False),
    ("fts", 3, 5, True),
    ("fts", 3, 3, True),
    ("fts", 6, 1, True),
    ("fts", 5, 1, True),
)
# Negative controls whose counterexample is deterministic: run once, in block 0.
# phase-king-lite under ftr loses agreement at round 3.
CHECK_NEGATIVE_EXHAUSTIVE = (
    (PKL, "ftr", 3, 3),
    ("naive-majority", "fts", 3, 2),
    ("constant-0", "fts", 3, 1),
    ("constant-1", "ftr", 4, 1),
)
CHECK_FUZZ_NS = (4, 5, 6, 7)
CHECK_FUZZ_RUNS = 500
CHECK_FUZZ_DEPTH = 30
CHECK_NEGATIVE_FUZZ = (
    ("naive-majority", "fts"),
    ("constant-0", "ftr"),
    ("constant-1", "fts"),
    ("naive-majority", "ftr"),
    ("constant-0", "fts"),
    ("constant-1", "ftr"),
)


def _exhaustive(protocol, model, n, depth, restricted=False):
    argv = ["check", "--protocol", protocol, "--n", str(n), "--mode", "exhaustive",
            "--model", model, "--depth", str(depth)]
    if restricted:
        argv.append("--restricted")
    return tuple(argv)


def _fuzz(protocol, model, n, seed):
    return ("check", "--protocol", protocol, "--n", str(n), "--mode", "fuzz", "--model", model,
            "--runs", str(CHECK_FUZZ_RUNS), "--depth", str(CHECK_FUZZ_DEPTH), "--seed", str(seed))


def _check_block(seed: int, b: int) -> list[tuple]:
    rng = _rng(seed, "check-block", b)
    jobs = []
    if b == 0:
        for protocol, model, n, depth in CHECK_NEGATIVE_EXHAUSTIVE:
            jobs.append(("check", _exhaustive(protocol, model, n, depth), 1))
    if b < len(CHECK_EXHAUSTIVE):
        model, n, depth, restricted = CHECK_EXHAUSTIVE[b]
        jobs.append(("check", _exhaustive(PKL, model, n, depth, restricted), 0))
    for n in CHECK_FUZZ_NS:
        jobs.append(("check", _fuzz(PKL, "fts", n, rng.randrange(2**31)), 0))
    for k in (2 * b, 2 * b + 1):
        protocol, model = CHECK_NEGATIVE_FUZZ[k % len(CHECK_NEGATIVE_FUZZ)]
        jobs.append(("check", _fuzz(protocol, model, rng.randrange(3, 7), rng.randrange(2**31)), 1))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# stack-ftr: wrapped protocols on the fail-to-receive engine
# ---------------------------------------------------------------------------

# (stack, n, horizon); piggyback cost grows with the square of the horizon.
STACK_FTR_SHAPES = (
    ("flp-over-ftr", 3, 30),
    ("flp-over-ftr", 3, 40),
    ("flp-over-ftr", 3, 50),
    ("flp-over-ftr", 3, 60),
    ("flp-over-ftr", 3, 70),
    ("flp-over-ftr", 3, 80),
    ("flp-over-ftr", 3, 90),
    ("flp-over-ftr", 4, 30),
    ("flp-over-ftr", 4, 40),
    ("flp-over-ftr", 4, 50),
    ("fts-over-ftr", 4, 30),
    ("fts-over-ftr", 4, 60),
    ("fts-over-ftr", 5, 45),
    ("fts-over-ftr", 5, 90),
    ("fts-over-ftr", 6, 120),
    ("fts-over-ftr", 8, 150),
)

def _stack_ftr_block(seed: int, b: int) -> list[tuple]:
    rng = _rng(seed, "stack-ftr-block", b)
    jobs = []
    for stack, n, horizon in STACK_FTR_SHAPES:
        argv = ("simulate", "--stack", stack, "--protocol", PKL, "--n", str(n), "--adversary",
                "random", "--seed", str(rng.randrange(2**31)), "--horizon", str(horizon))
        jobs.append(("simulate", argv, 0))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# stack-flp: the asynchronous engine under seeded fair schedulers
# ---------------------------------------------------------------------------

# (command, stack or protocol, n, horizon, crash)
STACK_FLP_SHAPES = (
    ("simulate", "ftr-over-flp", 4, 1500, False),
    ("simulate", "ftr-over-flp", 4, 1500, True),
    ("simulate", "ftr-over-flp", 5, 1000, False),
    ("simulate", "ftr-over-flp", 5, 1000, True),
    ("simulate", "fts-over-ftr-over-flp", 4, 1500, False),
    ("simulate", "fts-over-ftr-over-flp", 4, 1500, True),
    ("run", "ftr-over-flp", 4, 1200, False),
    ("run", "ftr-over-flp", 4, 1200, True),
)
FAIRNESS_WINDOW = 64
CRASH_STEP = 30


def _stack_flp_block(seed: int, b: int) -> list[tuple]:
    rng = _rng(seed, "stack-flp-block", b)
    jobs = []
    for command, stack, n, horizon, crash in STACK_FLP_SHAPES:
        s = str(rng.randrange(2**31))
        if command == "simulate":
            argv = ["simulate", "--stack", stack, "--protocol", PKL]
        else:
            argv = ["run", "--model", "flp", "--protocol", f"{stack}:{PKL}",
                    "--fairness-window", str(FAIRNESS_WINDOW)]
        argv += ["--n", str(n), "--scheduler", "random", "--seed", s, "--horizon", str(horizon)]
        if crash:
            argv += ["--crash", f"{rng.randrange(n)}:{CRASH_STEP}"]
        jobs.append((command, tuple(argv), 0))
    rng.shuffle(jobs)
    return jobs


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "attack": Workload(_attack_block, block_seconds=1.9, traced_blocks=1),
    "check": Workload(_check_block, block_seconds=0.8, traced_blocks=2),
    "stack-ftr": Workload(_stack_ftr_block, block_seconds=2.4, traced_blocks=1),
    "stack-flp": Workload(_stack_flp_block, block_seconds=1.0, traced_blocks=2),
}


def blocks_for(workload: str, seconds: float) -> int:
    """Block count whose nominal cost is closest to ``seconds``."""
    return max(1, round(seconds / WORKLOADS[workload].block_seconds))


def generate(workload: str, seed: int, blocks: int) -> list[Job]:
    """The job list of ``blocks`` blocks; a pure function of its arguments."""
    make = WORKLOADS[workload].block
    jobs: list[Job] = []
    seen: set[tuple[str, ...]] = set()
    for b in range(blocks):
        for kind, argv, expect in make(seed, b):
            if argv in seen:
                raise ValueError(f"duplicate job in {workload} seed {seed}: {' '.join(argv)}")
            seen.add(argv)
            jobs.append(Job(index=len(jobs), kind=kind, argv=argv, expect=expect))
    return jobs


# ---------------------------------------------------------------------------
# Running and verifying one job
# ---------------------------------------------------------------------------

TRACE_FILES = {
    "attack": "attack.trace.jsonl",
    "check": "violation.trace.jsonl",
    "simulate": "simulate.trace.jsonl",
    "run": "run.trace.jsonl",
}


def calls(job: Job, outdir: str) -> list[tuple[tuple[str, ...], int]]:
    """The command lines of one job with their expected exit codes."""
    out = [(job.argv, job.expect)]
    if job.kind == "attack":
        out.append((("validate", os.path.join(outdir, TRACE_FILES["attack"])), 0))
    return out


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _arg(argv, flag) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def verify(adversim, job: Job, outdir: str, codes: list, error: Optional[str]) -> list[str]:
    """Problems with one finished job; empty when its artefacts certify it."""
    if error is not None:
        return [f"escaped exception: {error}"]
    expected = [e for _, e in calls(job, outdir)]
    if codes != expected:
        return [f"exit codes {codes}, expected {expected}"]
    core = adversim.core
    trace_path = os.path.join(outdir, TRACE_FILES[job.kind])
    if job.kind == "check" and job.expect == 0:
        left = sorted(os.listdir(outdir))
        return [f"passing check wrote artefacts {left}"] if left else []
    # Artefacts are outside input: whatever a malformed one raises makes the
    # job a failed job, never a crashed benchmark.
    try:
        trace = core.ExecutionTrace.read(trace_path)
        report = core.validate_trace(trace)
    except Exception as exc:  # noqa: BLE001
        return [f"trace {trace_path}: {type(exc).__name__}: {exc}"]
    problems = [f"trace does not replay: {p}" for p in report.problems[:3]]
    try:
        problems += _VERIFY[job.kind](job, outdir, trace, core)
    except Exception as exc:  # noqa: BLE001
        problems.append(f"unreadable artefact: {type(exc).__name__}: {exc}")
    return problems


def _verify_attack(job, outdir, trace, core) -> list[str]:
    rounds = int(_arg(job.argv, "--rounds"))
    records = _read_jsonl(os.path.join(outdir, "attack.report.jsonl"))
    problems = []
    if len(trace.steps) != rounds:
        problems.append(f"built {len(trace.steps)} rounds, requested {rounds}")
    if len(records) != rounds + 1 or any("chain_exhausted" in r for r in records):
        problems.append(f"{len(records)} report records for {rounds} rounds")
    if any(r.get("outputs_written") != 0 for r in records):
        problems.append("a report record has outputs_written != 0")
    if trace.output_map():
        problems.append(f"trace writes outputs {trace.output_map()}")
    return problems


def _verify_check(job, outdir, trace, core) -> list[str]:
    (record,) = _read_jsonl(os.path.join(outdir, "violation.report.jsonl"))
    outputs = trace.output_map()
    shown = core.check_colorless_outcome(trace.inputs, outputs.values()).violation
    problems = []
    if shown != record["violation"]:
        problems.append(f"report says {record['violation']}, replayed trace shows {shown}")
    if record["inputs"] != list(trace.inputs):
        problems.append("report inputs differ from the trace header")
    if record["outputs"] != {str(q): v for q, v in sorted(outputs.items())}:
        problems.append("report outputs differ from the trace")
    if not trace.steps or record["round"] != trace.steps[-1].round:
        problems.append("report round is not the trace's last round")
    return problems


def _verify_simulate(job, outdir, trace, core) -> list[str]:
    stack = _arg(job.argv, "--stack")
    records = _read_jsonl(os.path.join(outdir, "simulate.report.jsonl"))
    n = int(_arg(job.argv, "--n"))
    problems = []
    if trace.protocol != f"{stack}:{_arg(job.argv, '--protocol')}":
        problems.append(f"trace protocol {trace.protocol!r} does not name the stack")
    if stack == "fts-over-ftr":
        if records[-1:] != [{"equivalent_direct_run": True}]:
            problems.append("equivalent_direct_run is not true")
        if any(r["core_size"] < n - 1 for r in records[:-1]):
            problems.append("a simulated round has a core smaller than n-1")
    elif stack.endswith("-over-flp"):
        if [r.get("projection_valid") for r in records] != [True]:
            problems.append("projection_valid is not true")
    elif not records:
        problems.append("empty delivery ledger")
    return problems


_VERIFY = {
    "attack": _verify_attack,
    "check": _verify_check,
    "simulate": _verify_simulate,
    "run": lambda job, outdir, trace, core: [],
}


def corrupt_trace(path: str) -> None:
    """Flip (or, where none is recorded, add) one output in a trace's first step."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    step = json.loads(lines[1])
    outputs = step["outputs"]
    if outputs:
        pid = sorted(outputs)[0]
        outputs[pid] = 1 - outputs[pid]
    else:
        outputs["0"] = 1
    lines[1] = json.dumps(step, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
