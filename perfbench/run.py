"""adversim benchmark: CLI jobs end to end, and per-module layers when traced.

    python3 perfbench/run.py --workload attack --seed 1 --seconds 8 --trace 0

Workloads: attack, check, stack-ftr, stack-flp (see perfbench/README.md).
Each run generates its jobs from the seed, in whole blocks whose nominal cost
adds up to about ``--seconds``; the job list depends only on workload, seed
and seconds, so two commits measure identical work.  Every interpreter is a
fresh child process, one at a time.

``--trace 0`` runs the jobs untraced in two fresh interpreters, one after the
other, and pools their job times for the end-to-end metrics.  The first pass
verifies every artefact; the second runs under another hash seed, and the
artefact digests of the two must match.  Set-up is timed over nine launches
spread before, between and after the passes.  ``--trace 1`` runs a fixed prefix of the job
list once untraced and twice traced, and reports the per-layer metrics, the
tracing overhead, and whether counts and digests repeated exactly.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when ``correct`` holds;
an unusable checkout (no ``src/adversim``) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import guard
import workloads
from tracing import COUNT_METRICS

# Reserved for confirming later performance claims; never used while tuning.
HELDOUT_SEED = 4_194_301
TIME_LIMIT_S = 170
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def _worker(mode, args, blocks, hash_seed, deadline, *extra) -> dict:
    """Run one worker interpreter to completion and return its result, with
    ``setup_s`` measured from just before launch to its ready moment."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--blocks", str(blocks), *extra]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=guard.ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        guard.fail(f"{mode} worker for {args.workload} passed the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        last = (err.strip().splitlines() or ["no message"])[-1]
        guard.fail(f"{mode} worker for {args.workload} exited {proc.returncode}: {last}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def _tail(times):
    """Per-job time at the highest percentile with at least ten jobs beyond
    it (nearest rank), with that percentile; the median below 11 jobs."""
    ordered = sorted(times)
    k = len(ordered)
    if k < 11:
        return statistics.median(ordered), 50.0
    return ordered[k - 11], 100.0 * (k - 10) / k


def _git_commit():
    git = os.path.join(guard.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _print_selfcheck(check):
    if check["job"] is None:
        print("  self-check: FAILED, no certified trace to corrupt")
    else:
        print(f"  self-check: corrupted copy of job {check['job']} "
              f"{'counted as failed' if check['caught'] else 'PASSED VERIFICATION'}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed(args, deadline, record):
    """Two timed passes over the same jobs in fresh interpreters, the first
    verified, the second under another hash seed; set-up launches are spread
    before, between and after them."""
    blocks = workloads.blocks_for(args.workload, args.seconds)

    def launches(count):
        return [_worker("setup", args, blocks, 0, deadline)["setup_s"] for _ in range(count)]

    setups = launches(3)
    first = _worker("run", args, blocks, 0, deadline, "--verify")
    setups += [first["setup_s"], *launches(2)]
    second = _worker("run", args, blocks, 1, deadline)
    setups += [second["setup_s"], *launches(2)]

    k = first["jobs"]
    times = first["times"] + second["times"]
    wall = first["wall"] + second["wall"]
    failed = len(first["failures"])
    tail, pct = _tail(times)
    same = second["digest"] == first["digest"]
    record.update(
        blocks=blocks,
        jobs=k,
        wall_s=[first["wall"], second["wall"]],
        job_times_s=[first["times"], second["times"]],
        tail_percentile=round(pct, 2),
        tail_samples=len(times),
        setup_samples=setups,
        digest=first["digest"],
        second_digest=second["digest"],
        failures=first["failures"],
        selfcheck=first["selfcheck"],
    )
    print(f"workload {args.workload} seed {args.seed}: {k} jobs in {blocks} blocks, "
          f"two passes of {first['wall']:.2f} s and {second['wall']:.2f} s")
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} launches"),
        ("jobs_per_s", len(times) / wall, "1/s", f"{len(times)} job runs"),
        ("job_p50_ms", 1e3 * statistics.median(times), "ms", f"{len(times)} job runs"),
        ("job_tail_ms", 1e3 * tail, "ms", f"p{pct:.1f} of {len(times)} job runs, 10 beyond"),
        ("fail_ratio", failed / k, "ratio", f"{failed} of {k} jobs failed"),
        ("peak_rss_mb", max(first["rss_mb"], second["rss_mb"]), "MB", "max of 2 interpreters"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<12} {value:>12.4f} {unit:<6} ({note})")
    for index, failure in sorted(first["failures"].items(), key=lambda kv: int(kv[0])):
        print(f"  FAILED job {index}: {failure['argv']}: {'; '.join(failure['problems'])}")
    print(f"  digest {first['digest']} "
          f"({'identical' if same else 'DIFFERENT'} in the second pass, under another hash seed)")
    check = first["selfcheck"]
    _print_selfcheck(check)

    metrics = {name: _metric(value, unit) for name, value, unit, _ in rows if name != "fail_ratio"}
    metrics["ok_ratio"] = _metric((k - failed) / k, "ratio")
    correct = failed == 0 and same and check["caught"]
    return correct, k, failed, metrics


def traced(args, deadline, record):
    blocks = workloads.WORKLOADS[args.workload].traced_blocks
    spans_dir = os.path.join(guard.OUT, "spans", args.workload)
    base = _worker("run", args, blocks, 0, deadline, "--verify")
    first = _worker("run", args, blocks, 0, deadline, "--trace", "--spans", spans_dir)
    second = _worker("run", args, blocks, 1, deadline, "--trace")

    layers = first["layers"]
    counts_repeat = all(layers[m] == second["layers"][m] for m in COUNT_METRICS)
    counts_repeat = counts_repeat and first["span_calls"] == second["span_calls"]
    digests = {base["digest"], first["digest"], second["digest"]}
    overhead = first["wall"] / base["wall"]
    failed = len(base["failures"])
    record.update(
        blocks=blocks,
        jobs=base["jobs"],
        spans=first["spans"],
        spans_dir=os.path.relpath(spans_dir, guard.ROOT),
        untraced_jobs_per_s=base["jobs"] / base["wall"],
        traced_jobs_per_s=first["jobs"] / first["wall"],
        counts_repeat=counts_repeat,
        digest=base["digest"],
        digests_identical=len(digests) == 1,
        failures=base["failures"],
        selfcheck=base["selfcheck"],
        span_calls=first["span_calls"],
    )
    print(f"workload {args.workload} seed {args.seed}: traced {base['jobs']} jobs "
          f"({blocks} blocks), {first['spans']} spans")
    for name, value in layers.items():
        print(f"  {name:<36} {value:>14.4f}")
    print(f"  tracing overhead: untraced {record['untraced_jobs_per_s']:.3f} jobs/s, "
          f"traced {record['traced_jobs_per_s']:.3f} jobs/s, ratio {overhead:.3f}")
    print(f"  counts {'repeat exactly' if counts_repeat else 'DIFFER'} across two traced runs; "
          f"digests {'identical' if len(digests) == 1 else 'DIFFER'} across all three runs")
    _print_selfcheck(base["selfcheck"])

    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    metrics = {name: _metric(value, units[name]) for name, value in layers.items()}
    metrics["tracing.overhead_ratio"] = _metric(overhead, units["tracing.overhead_ratio"])
    correct = failed == 0 and counts_repeat and len(digests) == 1 and base["selfcheck"]["caught"]
    return correct, base["jobs"], failed, metrics


def _benchmark():
    with open(os.path.join(guard.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    guard.load_adversim()
    if args.seed == HELDOUT_SEED:
        print(f"note: seed {HELDOUT_SEED} is the held-out seed for confirming claims")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
    }
    run = traced if args.trace else timed
    correct, attempted, failed, metrics = run(args, deadline, record)
    record["loadavg_end"] = os.getloadavg()
    record["metrics"] = metrics
    os.makedirs(guard.OUT, exist_ok=True)
    path = os.path.join(guard.OUT, f"record-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"run record: {os.path.relpath(path, guard.ROOT)} (seed {args.seed}, held-out seed "
          f"{HELDOUT_SEED}, python {record['python']}, nproc {record['nproc']}, load "
          f"{record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}, "
          f"commit {record['git_commit'] or 'unknown'})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
