"""Record the benchmark of this checkout as BENCH_<n>.json at the repository root.

    python3 tools/bench_record.py

Runs ``python3 obdbench/run.py --workload all --seed 1`` twice, once
untraced (the end-to-end metrics) and once with ``--trace 1`` (the per-layer
metrics: call counts, iteration sums and self times), and writes both JSON
results with the run's ``# env`` line and the git commit.  n is one more than
the highest number of an existing BENCH_<n>.json; an existing file is never
overwritten.
"""

from __future__ import annotations

import datetime
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ["obdbench/run.py", "--workload", "all", "--seed", "1"]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def bench(*extra: str) -> tuple[str, dict]:
    """One run of the benchmark: its first ``# env`` line and its JSON result."""
    lines = subprocess.run([sys.executable, *COMMAND, *extra], cwd=ROOT, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.splitlines()
    env = next(line for line in lines if line.startswith("# env"))
    return env, json.loads(lines[-1])


def main() -> int:
    taken = [int(m.group(1)) for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path)))]
    path = os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")
    env, untraced = bench()
    _, traced = bench("--trace", "1")
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": " ".join(["python3", *COMMAND]),
        "env": env,
        "untraced": untraced,
        "traced": traced,
    }
    with open(path, "x") as fh:  # never overwrite an earlier record
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}: correct={untraced['correct'] and traced['correct']}, "
          f"failed={untraced['failed'] + traced['failed']}")
    return 0 if untraced["correct"] and traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
