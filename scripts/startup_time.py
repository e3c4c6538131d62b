"""Start-up cost of the command line, measured in fresh interpreters.

Each case runs in a new ``python`` process with a checkout's ``src`` first on
``PYTHONPATH``, so the times include interpreter start and every import the
case makes.  The cases run interleaved, one of each per pass, so drift on a
shared machine affects them alike.  The script prints, per case, the median
wall time over the passes and the spread between its quartiles, and exits 1
if any run fails.

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
_PKL = ["--protocol", "phase-king-lite"]
CASES = (
    ("python -c pass", ["-c", "pass"]),
    ("import adversim.cli", ["-c", "import adversim.cli"]),
    ("adversim attack --n 5 --rounds 40", ["-m", "adversim", "attack", *_PKL, "--n", "5",
                                           "--rounds", "40"]),
    # replays the trace the attack case just wrote into the output directory
    ("adversim validate attack.trace.jsonl", ["-m", "adversim", "validate",
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
                times[label].append(time.perf_counter() - start)
                if proc.returncode != 0:
                    print(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}",
                          file=sys.stderr)
                    return 1
    print(f"median wall time over {REPEAT} fresh interpreters, python "
          f"{sys.version.split()[0]}, src {args.src}")
    for label, samples in times.items():
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(f"  {label:<46} {1000 * median:7.1f} ms  (quartiles {1000 * q1:.1f}-{1000 * q3:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
