"""Regenerate bench/reference.json: the deterministic scalars the benchmark's
output checks compare against.

The reference belongs to the commit it was made on; later commits must
reproduce it to round-off (workloads.REF_RTOL), so rerun this only to
adopt a deliberate change of results, and say so where the change is
recorded.

    python3 bench/make_reference.py     (from the repository root)
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

from workloads import AUDIT_CASES, AUDIT_SEED_SPAN, BENCH_DIR, REFERENCE, WORKLOADS


def main() -> int:
    root = BENCH_DIR.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    audit, fp_iss = WORKLOADS["audit"], WORKLOADS["fp-iss"]
    work = root / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    slack = [None] * (AUDIT_SEED_SPAN + AUDIT_CASES)
    for base in range(0, AUDIT_SEED_SPAN + 1, AUDIT_CASES):
        subprocess.run([sys.executable, "-m", "isslab.cli",
                        *audit.argv(work, base, setup=False)], env=env, check=True)
        with open(work / "run" / "results.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                slack[int(row["seed"])] = float(row["min_slack_ratio"])
        print(f"audit base seed {base}: done", flush=True)
    c_b1 = json.loads((work / "run" / "summary.json").read_text())["C_B1"]
    subprocess.run([sys.executable, str(BENCH_DIR / "fp_iss.py"),
                    *fp_iss.argv(work, 0, setup=True)], env=env, check=True)
    omega = json.loads((work / "setup" / "result.json").read_text())["omega"]
    REFERENCE.write_text(json.dumps(
        {"C_B1": c_b1, "fp_iss_omega": omega, "audit_min_slack_ratio": slack},
        indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
