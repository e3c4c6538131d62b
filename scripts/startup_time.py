"""Start-up cost of the command line, measured in fresh interpreters.

Each case runs in a new ``python`` process with a checkout's ``src`` first on
``PYTHONPATH``, so the times include interpreter start and every import the
case makes.  The cases run interleaved, one of each per pass, so drift on a
shared machine affects them alike.  The script prints, per case, the median
wall time over the passes and the spread between its quartiles, and exits 1
if any run fails.

One case times ``main`` inside a single fresh interpreter instead: after a
first call, it calls ``main(["validate", "attack.trace.jsonl"])`` 20 more times
and reports the median of those calls, which is what an in-process caller
pays per command once its imports and parser are in place.

    python scripts/startup_time.py                 # this checkout
    python scripts/startup_time.py --src OTHER/src # another checkout
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEAT = 15  # passes over the cases
CALLS = 20  # in-process calls timed after the first
_PKL = ["--protocol", "phase-king-lite"]
# times repeated main calls in one interpreter and prints their median
_PER_CALL = f"""
import statistics, sys, time
from adversim.cli import main
main(sys.argv[1:])
times = []
for _ in range({CALLS}):
    start = time.perf_counter()
    main(sys.argv[1:])
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""
CASES = (
    ("python -c pass", ["-c", "pass"]),
    ("import adversim.cli", ["-c", "import adversim.cli"]),
    ("adversim attack --n 5 --rounds 40", ["-m", "adversim", "attack", *_PKL, "--n", "5",
                                           "--rounds", "40"]),
    # replays the trace the attack case just wrote into the output directory
    ("adversim validate attack.trace.jsonl", ["-m", "adversim", "validate",
                                              "attack.trace.jsonl"]),
    ("in-process validate, per call after the first", ["-c", _PER_CALL, "validate",
                                                       "attack.trace.jsonl"]),
    ("adversim check --n 3 --depth 4", ["-m", "adversim", "check", *_PKL, "--n", "3",
                                        "--depth", "4"]),
    ("adversim run --model fts --n 5", ["-m", "adversim", "run", "--model", "fts", *_PKL,
                                        "--n", "5", "--inputs", "1,0,0,1,0"]),
    ("adversim simulate --stack fts-over-ftr --n 4", ["-m", "adversim", "simulate", "--stack",
                                                      "fts-over-ftr", *_PKL, "--n", "4",
                                                      "--inputs", "1,0,0,1"]),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parent.parent / "src"),
        help="the src directory of the checkout to time",
    )
    args = parser.parse_args(argv)
    times: dict[str, list[float]] = {label: [] for label, _ in CASES}
    with tempfile.TemporaryDirectory() as outdir:
        env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src), "ADVERSIM_OUTDIR": outdir}
        for _ in range(REPEAT):
            for label, case in CASES:
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, *case], cwd=outdir, env=env,
                                      capture_output=True, text=True)
                wall = time.perf_counter() - start
                if proc.returncode != 0:
                    print(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}",
                          file=sys.stderr)
                    return 1
                times[label].append(float(proc.stdout) if _PER_CALL in case else wall)
    print(f"median wall time over {REPEAT} fresh interpreters (one per case and pass), python "
          f"{sys.version.split()[0]}, src {args.src}")
    for label, samples in times.items():
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(f"  {label:<46} {1000 * median:7.1f} ms  (quartiles {1000 * q1:.1f}-{1000 * q3:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
