"""Workload definitions: seeded job lists and the checks on their outputs.

Every job has a fixed shape (task, field kind, grid size) and a small set of
variants that perturb field parameters, thresholds or the spec's scan seed
inside ranges whose verdicts are known.  The workload seed picks one variant
per job, so the program only ever sees generated specs, and every variant has
values recorded at the commit that defined the benchmark (reference.json,
written by record.py).  Perturbations leave grid sizes unchanged, so that the
run-to-run spread of the timings stays small across seeds.

A check returns a list of failure strings; an empty list means the job's
output is correct.  Three kinds of check apply:

* the verdict strings and flags must match exactly;
* the recorded numbers must match within the relative tolerances in RTOL;
* closed-form expectations must hold for every variant (disk-counterexample
  liminf equals alpha, Landau lambda_1/b in its window, the sign pattern of
  the probe's Hardy column, the radial transition at sqrt(3)/2, 8/8 PASS).
"""

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

VARIANTS = 8
SQRT3_2 = math.sqrt(3.0) / 2.0
DENSE_CUTOFF = 1500
# Spec seeds for the polytope scan.  The anchor layout rejection-samples, and
# over seeds 0-47 it took 68 to 90 tries (median 80); these take 80 or 81,
# so the seed moves the anchors but not the amount of work.
POLYTOPE_SEEDS = (13, 14, 31, 46, 28, 33, 43, 44)

# Relative tolerances against the recorded values.  Lattice eigenvalues come
# from a residual-checked iteration (rtol 1e-8 of |H|); the probe solves at
# rtol 1e-6 on indefinite matrices whose |H| is inflated by near-wall sites.
# Both leave room for a changed solver path with the same residual target
# (one BLAS thread instead of two moved them by under 1e-12).  Scan margins
# and radial fits are elementwise numpy and ODE arithmetic.
RTOL = {"eig": 1e-7, "probe": 1e-5, "scan": 1e-9, "radial": 1e-9}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass
class Job:
    """One closed-loop request: a spec for ``cli run`` or argv for the CLI."""

    name: str            # job template name, shared by its variants
    variant: int
    check: Callable      # (output) -> list of failure strings
    observe: Callable    # (output) -> recorded values
    rtol: float
    spec: dict = None    # for ``run`` jobs
    argv: list = field(default_factory=list)  # for argv-only jobs
    group: str = ""      # job group (GROUPS) it is reported under

    @property
    def key(self):
        return f"{self.name}/{self.variant}"


def _u(k):
    """Variant index 0..VARIANTS-1 mapped onto [-1, 1]."""
    return (k - (VARIANTS - 1) / 2.0) / ((VARIANTS - 1) / 2.0)


def _spec(task, name, params, field_=None, domain=None, seed=0):
    spec = {"schema": 1, "task": task, "output": name, "params": params, "seed": seed}
    if field_ is not None:
        spec["field"] = field_
    if domain is not None:
        spec["domain"] = domain
    return spec


def _need(cond, msg):
    return [] if cond else [msg]


# ---------------------------------------------------------------------------
# lattice-eig


def _landau(k):
    # The spacing moves with the box side, so the grid stays 48 x 48.
    # b >= 1.05 keeps every variant on the same solver path: the block grows
    # from 6 to 12 columns, while near b = 1 some variants never grow it.
    h, b = 0.2 * (1.0 + 0.01 * _u(k)), 1.07 + 0.02 * _u((3 * k + 1) % VARIANTS)
    spec = _spec("landau-check", "landau",
                 {"b": b, "side": 48.0 * h, "h": h, "k": 4, "window": [0.9, 1.1]})

    def check(p):
        # Bulk Landau bottom b with the lattice deficit b^2 h^2 / 8.
        scaled, want = p["eigenvalues"][0] / b, 1.0 - b * h * h / 8.0
        return (_need(p["within_window"] is True, "lambda_1/b outside its window")
                + _need(abs(scaled - want) <= 5e-4, f"lambda_1/b = {scaled}, expected {want}")
                + _need(p["n_sites"] == 2304, f"n_sites {p['n_sites']} != 2304"))

    return spec, check, lambda p: {"eigenvalues": p["eigenvalues"]}, RTOL["eig"]


def _disk_ctrex_eig(k):
    alpha = 0.5 + 0.05 * _u(k)
    spec = _spec("eig", "disk_ctrex",
                 {"h": 0.025, "delta": 0.06, "k": 4},
                 field_={"kind": "disk_counterexample", "alpha": alpha},
                 domain={"kind": "disk2d", "radius": 1.0})

    def check(p):
        ev = p["eigenvalues"]
        return (_need(len(ev) == 4 and all(a <= b for a, b in zip(ev, ev[1:])),
                      "eigenvalues missing or out of order")
                + _need(ev[0] > 0.0, "operator is not positive"))

    return spec, check, lambda p: {"eigenvalues": p["eigenvalues"], "n_sites": p["n_sites"]}, RTOL["eig"]


def _ball_const_eig(k):
    b = 1.0 + 0.1 * _u(k)
    spec = _spec("eig", "ball_const", {"h": 0.125, "k": 2},
                 field_={"kind": "constant",
                         "two_form": [[0.0, b, 0.0], [-b, 0.0, 0.0], [0.0, 0.0, 0.0]]},
                 domain={"kind": "ball3d", "radius": 1.0})

    def check(p):
        ev = p["eigenvalues"]
        return _need(len(ev) == 2 and 0.0 < ev[0] <= ev[1], "eigenvalues missing or out of order")

    return spec, check, lambda p: {"eigenvalues": p["eigenvalues"], "n_sites": p["n_sites"]}, RTOL["eig"]


# ---------------------------------------------------------------------------
# truncation-probe


def _probe_observe(p):
    return {"lambda_min_field": [r["lambda_min_field"] for r in p["rows"]],
            "lambda_min_hardy": [r["lambda_min_hardy"] for r in p["rows"]],
            "n_sites": [r["n_sites"] for r in p["rows"]]}


def _probe_disk(k):
    alpha = 0.3 + 0.02 * _u(k)
    spec = _spec("hur-probe", "probe_disk", {"deltas": [0.1, 0.05, 0.025]},
                 field_={"kind": "disk_counterexample", "alpha": alpha},
                 domain={"kind": "disk2d", "radius": 1.0})

    def check(p):
        hardy = [r["lambda_min_hardy"] for r in p["rows"]]
        # Margin alpha < 1: the Hardy column dives like -1/delta^2.
        return (_need(all(a > b for a, b in zip(hardy, hardy[1:])),
                      f"Hardy column not decreasing: {hardy}")
                + _need(hardy[-1] < 0.0, f"Hardy column never dives negative: {hardy}")
                + _need(p["bounded_below"] is False, "probe reports bounded below"))

    return spec, check, _probe_observe, RTOL["probe"]


def _probe_polytope(k):
    from confinement_lab.domains import rotated_unit_square

    # Only eps moves: turning the square changes the solver's iteration count.
    square = rotated_unit_square().to_json()
    spec = _spec("hur-probe", "probe_polytope",
                 {"deltas": [0.1, 0.05, 0.025], "eps": 0.1 + 0.02 * _u(k)},
                 field_={"kind": "polytope_field", "domain": square}, domain=square)

    def check(p):
        hardy = [r["lambda_min_hardy"] for r in p["rows"]]
        # The polytope field dominates D^-2 pointwise: the column stays in band.
        return (_need(all(v > 0.0 for v in hardy), f"Hardy column left its band: {hardy}")
                + _need(p["bounded_below"] is True, "probe reports unbounded below")
                + _need(p["rows"][0]["n_sites"] <= DENSE_CUTOFF,
                        "smallest row no longer takes the dense path"))

    return spec, check, _probe_observe, RTOL["probe"]


# ---------------------------------------------------------------------------
# verdicts


def _scan_observe(p):
    return {"verdict": p["verdict"], "liminf_estimate": p["liminf_estimate"],
            "direction_oscillation": p["direction_oscillation"]}


def _scan_check(verdict, liminf=None, liminf_rtol=1e-2):
    def check(p):
        out = _need(p["verdict"] == verdict, f"verdict {p['verdict']} != {verdict}")
        out += _need(p["excluded"] == 0, f"{p['excluded']} samples excluded")
        if liminf is not None:
            out += _need(abs(p["liminf_estimate"] - liminf) <= liminf_rtol * liminf,
                         f"liminf {p['liminf_estimate']} != {liminf}")
        return out
    return check


def _torus_json():
    return {"kind": "solid_torus3d", "major_radius": 2.0, "minor_radius": 1.0}


def _scan_toroidal(k):
    alpha = 2.0 + 0.2 * _u(k)
    spec = _spec("scan-criterion", "scan_toroidal", {"anchors": 64},
                 field_={"kind": "toroidal", "alpha": alpha, "domain": _torus_json()}, seed=k)
    return spec, _scan_check("CONFINING_D2"), _scan_observe, RTOL["scan"]


def _scan_nontoroidal(k):
    ball = {"kind": "ball3d", "radius": 1.0 + 0.05 * _u(k)}
    spec = _spec("scan-criterion", "scan_nontoroidal", {"anchors": 64},
                 field_={"kind": "nontoroidal", "domain": ball}, seed=k)
    # The non-toroidal reference form spins near its boundary zeros, so the
    # direction condition fails although the margin clears the threshold.
    return spec, _scan_check("INCONCLUSIVE_GAP"), _scan_observe, RTOL["scan"]


def _scan_polytope(k):
    from confinement_lab.domains import rotated_unit_square

    square = rotated_unit_square().to_json()
    spec = _spec("scan-criterion", "scan_polytope", {"anchors": 64},
                 field_={"kind": "polytope_field", "domain": square}, domain=square,
                 seed=POLYTOPE_SEEDS[k])
    # b_12 = sum_i L_i^-2 -> D^-2 at a facet: the margin tends to 1.
    return spec, _scan_check("INCONCLUSIVE_GAP", liminf=1.0), _scan_observe, RTOL["scan"]


def _scan_disk_ctrex(k):
    alpha = 0.5 + 0.1 * _u(k)
    spec = _spec("scan-criterion", "scan_disk_ctrex", {"anchors": 64},
                 field_={"kind": "disk_counterexample", "alpha": alpha}, seed=k)
    return spec, _scan_check("BELOW_THRESHOLD", liminf=alpha), _scan_observe, RTOL["scan"]


def _scan_monopole(k):
    charge = 3 + k % 4
    spec = _spec("scan-criterion", "scan_monopole", {"anchors": 64},
                 field_={"kind": "monopole", "charge": charge}, seed=k)
    # |B|_sp |x|^2 = |m|/2 on every ray.
    return (spec, _scan_check("CONFINING_SINGULAR_POINT", liminf=charge / 2.0, liminf_rtol=1e-9),
            _scan_observe, RTOL["scan"])


def _scan_multipole(k):
    t = 0.05 * _u(k)
    dirs = [[0.0, math.sin(t), math.cos(t)], [1.0, 0.0, 0.0], [0.0, math.cos(t), -math.sin(t)]]
    spec = _spec("scan-criterion", "scan_multipole", {"anchors": 32},
                 field_={"kind": "multipole", "directions": dirs}, seed=k)
    return spec, _scan_check("CONFINING_SINGULAR_POINT"), _scan_observe, RTOL["scan"]


def _direction_scan(k):
    alpha = 2.0 + 0.2 * _u(k)
    spec = _spec("direction-scan", "direction_toroidal", {"anchors": 64},
                 field_={"kind": "toroidal", "alpha": alpha, "domain": _torus_json()}, seed=k)

    def check(p):
        return (_need(p["regular"] is True, "toroidal direction not regular")
                + _need(p["max_oscillation"] <= 0.05, f"oscillation {p['max_oscillation']}"))

    return (spec, check,
            lambda p: {"regular": p["regular"], "max_oscillation": p["max_oscillation"]},
            RTOL["scan"])


def _sweep_alpha(k):
    # Fixed: moving the bracket changes how many bisection steps run.
    spec = _spec("sweep-alpha", "sweep_alpha",
                 {"range": [0.5, 1.2], "step": 0.1, "method": "solve", "bisect": True})

    def check(p):
        out = []
        for r in p["rows"]:
            # c = alpha^2 at r = 1: limit circle iff alpha < sqrt(3)/2.
            want = "LimitCircle" if r["alpha"] < SQRT3_2 - 0.02 else (
                "LimitPoint" if r["alpha"] > SQRT3_2 + 0.02 else r["kind"])
            out += _need(r["kind"] == want, f"alpha {r['alpha']}: {r['kind']} != {want}")
            out += _need(abs(r["c"] - r["alpha"] ** 2) <= 1e-3 * r["alpha"] ** 2,
                         f"alpha {r['alpha']}: c {r['c']} != alpha^2")
        est = p["threshold_estimate"]
        return out + _need(abs(est - SQRT3_2) <= 0.03, f"threshold {est} not near sqrt(3)/2")

    def observe(p):
        return {"kinds": [r["kind"] for r in p["rows"]], "c": [r["c"] for r in p["rows"]],
                "threshold_estimate": p["threshold_estimate"]}

    return spec, check, observe, RTOL["radial"]


def _monopole_verdict(k):
    spec = _spec("monopole-verdict", "monopole_verdict", {"charges": [1, 2, 3, 4]})

    def check(p):
        esa = {r["charge"]: r["indicial"] for r in p["rows"]}
        # lambda_min = |m|/2 >= 3/4 iff |m| >= 2: limit point at the puncture.
        return (_need(p["all_agree"] is True, "indicial and solve verdicts disagree")
                + _need(esa == {1: False, 2: True, 3: True, 4: True}, f"verdicts {esa}"))

    return spec, check, lambda p: {"rows": p["rows"]}, RTOL["radial"]


# ---------------------------------------------------------------------------
# reproduce


def _reproduce(k):
    thresholds = {
        "toroidal-direction": {"max_oscillation": 0.05 + 0.01 * _u(k)},
        "disk-ctrex-verdict": {"liminf_tol": 0.01 + 0.005 * _u(k)},
        "landau-window": {"lo": 0.9 - 0.05 * _u(k), "hi": 1.1 + 0.05 * _u(k)},
    }
    argv = ["reproduce", "--thresholds", json.dumps(thresholds, sort_keys=True)]

    def check(out):
        lines = out["stdout"].splitlines()
        passed = [ln for ln in lines if ln.startswith("PASS  ")]
        return (_need(len(passed) == 8, f"{len(passed)}/8 PASS")
                + _need(bool(lines) and lines[-1] == "all 8 checks passed",
                        "reproduce did not report 8/8"))

    def observe(out):
        # Every printed value, without the per-check wall time.
        return {"lines": [re.sub(r" \(\d+\.\ds\)$", "", ln)
                          for ln in out["stdout"].splitlines()]}

    return argv, check, observe, 0.0


# ---------------------------------------------------------------------------


GROUPS = {
    "lattice-eig": [_landau, _disk_ctrex_eig, _ball_const_eig],
    "truncation-probe": [_probe_disk, _probe_polytope],
    "verdicts": [_scan_toroidal, _scan_nontoroidal, _scan_polytope, _scan_disk_ctrex,
                 _scan_monopole, _scan_multipole, _direction_scan, _sweep_alpha,
                 _monopole_verdict],
    "reproduce": [_reproduce],
}

# Each measured workload runs two job groups in one process.  On a shared
# host the speed drifts over minutes, and two long runs average more of that
# drift than four short ones in the same total time.  The groups pair jobs
# that load the same layers: lattice eigenvalues with lattice probes, and
# the verdict specs with the reproduce command, which is made of verdicts.
WORKLOADS = {
    "lattice": ["lattice-eig", "truncation-probe"],
    "verdicts": ["verdicts", "reproduce"],
}


def _make(builder, k, group):
    made = builder(k)
    name = builder.__name__.lstrip("_").replace("_", "-")
    if isinstance(made[0], list):
        argv, check, observe, rtol = made
        return Job(name, k, check, observe, rtol, argv=argv, group=group)
    spec, check, observe, rtol = made
    return Job(name, k, check, observe, rtol, spec=spec, group=group)


def _templates(workload):
    return [(group, b) for group in WORKLOADS[workload] for b in GROUPS[group]]


def jobs_for(workload, seed):
    """The workload's job list for ``seed``: one variant per job template."""
    rng = random.Random(f"{workload}:{seed}")
    return [_make(b, rng.randrange(VARIANTS), g) for g, b in _templates(workload)]


def all_variants(workload):
    return [_make(b, k, g) for g, b in _templates(workload) for k in range(VARIANTS)]


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, want, rtol, path):
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _close(g, w, rtol, f"{path}[{i}]")]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for key in want for m in _close(got[key], want[key], rtol, f"{path}.{key}")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - want) <= rtol * max(abs(want), 1e-300):
            return []
        return [f"{path}: {got!r} differs from recorded {want!r} (rtol {rtol:g})"]
    return [] if got == want else [f"{path}: {got!r} != recorded {want!r}"]


def verify(job, output, reference):
    """All failures of one job's output: closed-form checks plus reference."""
    failures = list(job.check(output))
    want = reference.get(job.key)
    if want is None:
        return failures + [f"no recorded values for {job.key}"]
    return failures + _close(job.observe(output), want, job.rtol, job.key)
