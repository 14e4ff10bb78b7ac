"""Print every end-to-end metric, with its unit, for every workload.

    python3 bench/summary.py [--seed N] [--seconds S]

Run from the root of a checkout.  Each workload runs in its own process
through run.py with tracing off; failed_frac is failed / attempted of that
run's result line.  The wall_s and max_job_s of each job group within a
workload (lattice-eig, truncation-probe, verdicts, reproduce) follow its row.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    args = p.parse_args()
    header = [name for name, _ in END_TO_END] + ["failed_frac"]
    units = [unit for _, unit in END_TO_END] + ["ratio"]
    print(f"{'workload':18s}" + "".join(f"{h:>22s}" for h in header))
    ok = True
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{workload:18s} no result (exit {out.returncode}): {out.stderr.strip()[-300:]}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        values = [res["metrics"][name]["value"] for name, _ in END_TO_END]
        values.append(res["failed"] / res["attempted"])
        print(f"{workload:18s}" + "".join(f"{v:>16.6g} {u:<5s}" for v, u in zip(values, units)))
        for line in lines:
            if line.startswith("  group "):
                print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
