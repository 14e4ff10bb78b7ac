"""Tests of the benchmark itself: wrapper removal, per-layer coverage, the
repeatability of the named counts, and the correctness gate."""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import scipy.sparse.linalg  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from confinement_lab import cli, fields, lattice  # noqa: E402
from confinement_lab.domains import Ball3D  # noqa: E402

# Counts that must repeat exactly for fixed inputs.
EXACT = ["lattice.factor_calls", "lattice.factor_fill", "lattice.solve_calls",
         "fields.field_eval_calls", "fields.refine_nfev", "radial.q_evals",
         "criterion.samples"]

# Small jobs that together enter every wrap point.
MINI_SPECS = [
    {"schema": 1, "task": "eig", "output": "eig",
     "field": {"kind": "disk_counterexample", "alpha": 0.5},
     "domain": {"kind": "disk2d", "radius": 1.0}, "params": {"h": 0.04, "k": 2}},
    {"schema": 1, "task": "hur-probe", "output": "probe",
     "field": {"kind": "disk_counterexample", "alpha": 0.3},
     "domain": {"kind": "disk2d", "radius": 1.0}, "params": {"deltas": [0.2, 0.1]}},
    {"schema": 1, "task": "scan-criterion", "output": "scan",
     "field": {"kind": "monopole", "charge": 3}, "params": {"anchors": 8}},
    {"schema": 1, "task": "direction-scan", "output": "dirs",
     "field": {"kind": "toroidal", "alpha": 2.0,
               "domain": {"kind": "solid_torus3d", "major_radius": 2.0, "minor_radius": 1.0}},
     "params": {"anchors": 8}},
    {"schema": 1, "task": "sweep-alpha", "output": "sweep",
     "params": {"alphas": [0.5, 1.0], "method": "solve"}},
]


def _snapshot():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _ in tracer.wrap_points(tracer.Tracer())]


def _mini_run(tmp_path):
    """One traced pass over MINI_SPECS plus a boundary-zero analysis."""
    t = tracer.Tracer()
    jobs = []
    for spec in MINI_SPECS:
        job = workloads.Job(spec["output"], 0, None, None, 0.0, spec=spec)
        run._setup_job(job, str(tmp_path))
        jobs.append(job)
    saved = tracer.install(t)
    try:
        for job in jobs:
            _, output, failures = run._run_job(cli, job, t)
            assert output is not None, failures
        t.job = "boundary"
        root = t.open("job")
        fields.boundary_one_form_analysis(fields.NonToroidalField(Ball3D(1.0)), resolution=8)
        t.close(root)
    finally:
        tracer.uninstall(saved)
    return t.metrics()


def test_uninstall_restores_every_original():
    before = _snapshot()
    saved = tracer.install(tracer.Tracer())
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
    finally:
        tracer.uninstall(saved)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert lattice.spla is scipy.sparse.linalg


def test_plain_runs_record_nothing(tmp_path):
    t = tracer.Tracer()
    tracer.uninstall(tracer.install(t))
    job = workloads.Job("scan", 0, None, None, 0.0, spec=MINI_SPECS[2])
    run._setup_job(job, str(tmp_path))
    run._run_job(cli, job)
    assert t.spans == [] and not t.counts


def test_every_layer_metric_emitted_and_counts_repeat(tmp_path):
    first = _mini_run(tmp_path)
    assert set(first) == {name for name, _, _ in tracer.PER_LAYER}
    silent = [name for name, value in first.items()
              if value <= 0 and name != "criterion.excluded"]
    assert silent == []
    second = _mini_run(tmp_path)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}


def test_self_time_excludes_children():
    t = tracer.Tracer()
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    t.spans[outer][2:4] = [0.0, 3.0]
    t.spans[inner][2:4] = [1.0, 2.0]
    assert dict(t.self_times()) == {"outer": 2.0, "inner": 1.0}


def test_every_variant_has_recorded_values():
    reference = workloads.load_reference()
    keys = {job.key for name in workloads.WORKLOADS for job in workloads.all_variants(name)}
    assert keys == set(reference)


def test_every_group_runs_in_exactly_one_workload():
    placed = [group for groups in workloads.WORKLOADS.values() for group in groups]
    assert sorted(placed) == sorted(workloads.GROUPS)
    for name, groups in workloads.WORKLOADS.items():
        assert [j.group for j in workloads.jobs_for(name, 0)] == [
            g for g in groups for _ in workloads.GROUPS[g]]


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.jobs_for(name, 7)
        b = workloads.jobs_for(name, 7)
        assert [(j.key, j.spec, j.argv) for j in a] == [(j.key, j.spec, j.argv) for j in b]


@pytest.mark.parametrize("key,path,factor", [
    ("landau/0", "eigenvalues", 1.0 + 1e-5),
    ("probe-disk/0", "lambda_min_hardy", 1.0 + 1e-3),
])
def test_gate_rejects_drifted_numbers(key, path, factor):
    reference = workloads.load_reference()
    job = next(j for w in workloads.WORKLOADS for j in workloads.all_variants(w)
               if j.key == key)
    recorded = copy.deepcopy(reference[key])
    recorded[path] = [v * factor for v in recorded[path]]
    assert workloads._close(recorded, reference[key], job.rtol, key)
    assert not workloads._close(reference[key], reference[key], job.rtol, key)
