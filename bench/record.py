"""Record the reference values every job variant is checked against.

    python3 bench/record.py

Run from the root of a checkout.  Every variant of every workload is run
once; its closed-form checks must pass, and the values its ``observe``
picks out are written to bench/reference.json.  Re-record only when a
change is meant to alter outputs, and say so in the change.
"""

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    cli = run._import_program()
    if cli is None:
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    reference, bad = {}, []
    os.makedirs(run.SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as specdir:
        for name in workloads.WORKLOADS:
            for job in workloads.all_variants(name):
                run._setup_job(job, specdir)
                elapsed, output, failures = run._run_job(cli, job)
                if output is not None:
                    failures = job.check(output)
                    reference[job.key] = job.observe(output)
                print(f"{name:18s} {job.key:26s} {elapsed:8.3f} s  {failures or 'ok'}")
                bad += failures
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
