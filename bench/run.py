"""confinement-lab benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The driver generates the workload's specs
from the seed, then feeds them one at a time (closed loop, one process) to
the program's public entry points, ``confinement_lab.cli.main(["run", ...])``
and ``cli.main(["reproduce", ...])``, repeating the whole job list until the
time is up.  Every output is checked (see workloads.py); a miss is printed
and counted in ``failed``.

--trace 0 reports the end-to-end metrics from each job's median time over
the run's passes, scaled by a speed probe (see probe.py) that is timed
before every job.  --trace 1 alternates plain and traced passes and
reports the per-layer metrics, plus the tracing overhead (median traced pass
minus median plain pass).  Each job also counts in a group (the workload's
halves, see workloads.py) whose times are printed.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The BLAS pools run as shipped: the thread-count variables are removed from
the environment before numpy loads, and the observed pool sizes are printed.
"""

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
SCRATCH = ".bench_runs"

END_TO_END = [("wall_s", "s"), ("max_job_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

HERE = os.path.dirname(os.path.abspath(__file__))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import every layer, generate the specs and exit "
                        "(what one setup_s sample times)")
    return p.parse_args(argv)


def _import_program():
    """Import every layer module from ./src; None when this is no checkout."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "confinement_lab", "cli.py")):
        return None
    sys.path.insert(0, src)
    from confinement_lab import (cli, criterion, domains, exterior, fields,  # noqa: F401
                                 lattice, radial, spherical)
    return cli


def _setup_job(job, specdir):
    """Write a run job's spec to ``specdir`` and point its argv at it."""
    if job.spec is not None:
        path = os.path.join(specdir, job.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job.spec, fh, sort_keys=True)
        job.argv = ["run", path, "--out", specdir]


def _setup(workload, seed, specdir):
    """Generate the job list and write its specs to ``specdir``."""
    import workloads

    jobs = workloads.jobs_for(workload, seed)
    for job in jobs:
        _setup_job(job, specdir)
    return jobs


def _measure_setup(args):
    """Median wall time of fresh processes that do only the set-up."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _blas_pools():
    """Observed OpenBLAS pool sizes of the numpy and scipy wheels."""
    import numpy
    import ctypes

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    pools = {}
    for pkg in ("numpy", "scipy"):
        for path in glob.glob(os.path.join(site, pkg + ".libs", "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    pools[pkg] = int(getattr(lib, sym)())
                    break
    return pools


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": _blas_pools(),
    }


def _run_job(cli, job, tracer=None):
    """One job: (seconds, output, failures).  Timing covers only cli.main."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job = job.key
        root = tracer.open("job")
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception:  # a crashed job is a failed job
        rc = "crash"
        err.write(traceback.format_exc(limit=3))
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.close(root)
    text = out.getvalue()
    if rc != 0:
        return elapsed, None, [f"exit {rc}: {err.getvalue().strip()[-300:]}"]
    if job.spec is None:
        output, written = {"stdout": text}, len(text.encode())
    else:
        paths = text.split()
        written = sum(os.path.getsize(p) for p in paths)
        with open(paths[0], "r", encoding="utf-8") as fh:
            output = json.load(fh)["payload"]
    if tracer is not None:
        tracer.count("cli.bytes_written", written)
    return elapsed, output, []


def _run_pass(cli, jobs, reference, tracer=None, probe=None, probe_times=None):
    """Run every job once; before each, time ``probe`` into ``probe_times``."""
    import workloads

    times, failures = [], []
    for job in jobs:
        if probe is not None:
            probe_times.append(probe())
        elapsed, output, bad = _run_job(cli, job, tracer)
        times.append(elapsed)
        if output is not None:
            bad = workloads.verify(job, output, reference)
        if bad:
            failures.append(f"FAIL {job.key}: " + "; ".join(bad))
    return times, failures


def _measure(cli, jobs, seconds, trace, probe):
    """Closed loop over the job list until the next pass would overrun."""
    import tracer as tracing
    import workloads

    reference = workloads.load_reference()
    plain, traced, layer, failures, probe_times = [], [], [], [], []
    attempted = 0
    started = time.perf_counter()
    while True:
        times, bad = _run_pass(cli, jobs, reference, probe=probe, probe_times=probe_times)
        plain.append(times)
        failures += bad
        attempted += len(jobs)
        if trace:
            t = tracing.Tracer()
            saved = tracing.install(t)
            try:
                times, bad = _run_pass(cli, jobs, reference, t)
            finally:
                tracing.uninstall(saved)
            traced.append(sum(times))
            layer.append(t.metrics())
            failures += bad
            attempted += len(jobs)
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break
    return plain, traced, layer, failures, attempted, probe_times


def main():
    args = _parse(sys.argv[1:])
    if any(v in os.environ for v in POOL_VARS):
        env = {k: v for k, v in os.environ.items() if k not in POOL_VARS}
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    specdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        cli = _import_program()
        if cli is None:
            print("error: src/confinement_lab not found; run from the root of a "
                  "checkout", file=sys.stderr)
            return 2
        jobs = _setup(args.workload, args.seed, specdir)
        if args.setup_only:
            return 0
        import probe

        setup_s = None if args.trace else _measure_setup(args)
        env = _environment()
        print("env " + json.dumps(env, sort_keys=True))
        plain, traced, layer, failures, attempted, probe_times = _measure(
            cli, jobs, args.seconds, args.trace, probe.sparse_lu)
    finally:
        shutil.rmtree(specdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)

    for line in failures:
        print(line)
    # Each job's median over the run, in seconds at the probe's reference
    # speed.  On a shared host the core speed changes from pass to pass; a
    # minimum rests on the one luckiest pass of a run, a median on all of
    # them.  The scale removes the drift of the speed over minutes.
    raw = [statistics.median(t) for t in zip(*plain)]
    scale = probe.REFERENCE_S / statistics.median(probe_times)
    medians = [m * scale for m in raw]
    if args.trace:
        import tracer

        metrics = {name: {"value": statistics.median(m[name] for m in layer), "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(sum(t) for t in plain),
            "unit": "s"}
    else:
        values = {
            "wall_s": sum(medians),
            "max_job_s": max(medians),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failed = len(failures)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} passes, "
          f"jobs {[j.key for j in jobs]}, blas threads {env['blas_threads']}, "
          f"nproc {env['nproc']}")
    print(f"  probe sparse_lu: median {statistics.median(probe_times):.6g} s of "
          f"{len(probe_times)}, reference {probe.REFERENCE_S:g} s, "
          f"scale {scale:.6g}; raw wall_s {sum(raw):.6g} s, max_job_s {max(raw):.6g} s")
    for job, median, unscaled in zip(jobs, medians, raw):
        print(f"  job {job.key:24s} {median:.6g} s median (raw {unscaled:.6g} s)")
    for group in dict.fromkeys(job.group for job in jobs):
        mine = [m for job, m in zip(jobs, medians) if job.group == group]
        print(f"  group {group:18s} wall_s {sum(mine):.6g} s  max_job_s {max(mine):.6g} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
