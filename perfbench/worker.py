"""One workload run in a fresh interpreter; prints one JSON result line.

    python3 perfbench/worker.py setup --workload W --seed S --blocks B
    python3 perfbench/worker.py run --workload W --seed S --blocks B [--verify] [--trace [--spans DIR]]

``setup`` stops once the first job could start and reports that moment
(``time.monotonic``, which every process on the machine shares), so the
launcher can time interpreter start, ``import adversim``, job generation and
output-directory creation.  ``run`` then drives ``adversim.cli.main`` in
process: a closed loop with one client, jobs back to back on one thread.
Every job writes under its own ``ADVERSIM_OUTDIR``.  After the loop the
artefacts are hashed in job order and, with ``--verify``, checked; the output
directory is removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import guard
import workloads

OUTDIR_ENV = "ADVERSIM_OUTDIR"


def _run_job(cli, job, outdir):
    """Exit codes of the job's command lines, its stderr, and the exception
    that escaped ``main`` if one did."""
    os.environ[OUTDIR_ENV] = outdir
    codes = []
    error = None
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        for argv, expect in workloads.calls(job, outdir):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception as exc:  # noqa: BLE001 - a crashing job is a failed job
                error = f"{type(exc).__name__}: {exc}"
                break
            codes.append(code)
            if code != expect:
                break
    return codes, buf.getvalue(), error


def _digest(jobs, dirs, outcomes) -> str:
    """sha256 over every job's command, exit codes, stderr and artefact
    files, in job order, with the job's output directory name erased."""
    h = hashlib.sha256()
    for job, outdir, (codes, err, error) in zip(jobs, dirs, outcomes):
        h.update(json.dumps([job.index, job.argv, codes, err.replace(outdir, "$OUT"), error]).encode())
        for name in sorted(os.listdir(outdir)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(outdir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _self_check(adversim, jobs, dirs, outcomes, failed, scratch):
    """Corrupt a copy of one certified trace: the verifier must reject it."""
    for job, outdir, (codes, _, error) in zip(jobs, dirs, outcomes):
        trace = os.path.join(outdir, workloads.TRACE_FILES[job.kind])
        if job.index in failed or not os.path.exists(trace):
            continue
        copy = os.path.join(scratch, "selfcheck")
        shutil.copytree(outdir, copy)
        workloads.corrupt_trace(os.path.join(copy, workloads.TRACE_FILES[job.kind]))
        problems = workloads.verify(adversim, job, copy, codes, error)
        return {"job": job.index, "caught": bool(problems), "problems": problems[:2]}
    return {"job": None, "caught": False, "problems": ["no certified trace to corrupt"]}


def run(adversim, args, jobs, dirs, scratch) -> dict:
    cli = adversim.cli
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(adversim)
        tracer.install()
    times, outcomes = [], []
    clock = time.perf_counter
    started = clock()
    for job, outdir in zip(jobs, dirs):
        if tracer is not None:
            tracer.begin_job(job.index)
        t0 = clock()
        outcome = _run_job(cli, job, outdir)
        times.append(clock() - t0)
        outcomes.append(outcome)
    wall = clock() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    result = {
        "jobs": len(jobs),
        "wall": wall,
        "times": times,
        "rss_mb": rss_mb,
        "digest": _digest(jobs, dirs, outcomes),
    }
    if args.verify:
        failures = {}
        for job, outdir, (codes, _, error) in zip(jobs, dirs, outcomes):
            problems = workloads.verify(adversim, job, outdir, codes, error)
            if problems:
                failures[job.index] = {"argv": " ".join(job.argv), "problems": problems[:3]}
        result["failures"] = failures
        result["selfcheck"] = _self_check(adversim, jobs, dirs, outcomes, failures, scratch)
    if tracer is not None:
        totals, trace_io_ns = tracer.span_totals()
        result["layers"] = tracer.metrics(totals, trace_io_ns)
        result["span_calls"] = {name: t["calls"] for name, t in totals.items()}
        result["spans"] = len(tracer.name)
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="directory for the span columns of a traced run")
    args = parser.parse_args(argv)

    adversim = guard.load_adversim()
    jobs = workloads.generate(args.workload, args.seed, args.blocks)
    os.makedirs(guard.OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.mode}-", dir=guard.OUT)
    try:
        dirs = [os.path.join(scratch, f"job-{job.index:05d}") for job in jobs]
        for d in dirs:
            os.mkdir(d)
        ready = time.monotonic()
        result = {"ready": ready}
        if args.mode == "run":
            result.update(run(adversim, args, jobs, dirs, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
