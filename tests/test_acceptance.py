"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and pins its tolerances and runtime budget in the assertion itself.
"""

import math
import time
from fractions import Fraction

import numpy as np

from confinement_lab.criterion import scan_margin
from confinement_lab.domains import (
    Ball3D,
    Disk2D,
    SolidTorus3D,
    axis_box,
    polygon_from_vertices,
    rotated_unit_square,
)
from confinement_lab.exterior import axial_matrices, norm_sp_batch, plane_two_form
from confinement_lab.fields import (
    ConstantField,
    DipoleField,
    DiskCounterexampleField,
    GaugeShiftField,
    MonopoleField,
    NonToroidalField,
    Polynomial,
    PolytopeField,
    RotationOneForm,
    ToroidalField,
    boundary_one_form_analysis,
)
from confinement_lab.lattice import (
    assemble,
    commutator_bound_test,
    ground_state_deficit,
    hur_hypothesis_probe,
)
from confinement_lab.radial import (
    esa_verdict_radial,
    reduce_monopole,
    sweep_alpha,
    threshold_bisection,
)
from confinement_lab.spherical import counting_check, spectrum

SQRT3_2 = math.sqrt(3.0) / 2.0
FORM_CONSTANT = 0.0884431530


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"AC{num:02d} {status}  {detail}  ({elapsed:.1f}s < {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds budget {budget:.0f}s"


def test_ac01_spectral_norm_exactness():
    t0 = time.perf_counter()
    block = np.zeros((4, 4))
    block[0, 1], block[1, 0] = 3.0, -3.0
    block[2, 3], block[3, 2] = 1.0, -1.0
    err4 = abs(norm_sp_batch(block) - 4.0)
    err3 = abs(norm_sp_batch(axial_matrices(np.array([1.0, 2.0, 2.0]))) - 3.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        m = rng.normal(size=(d, d))
        skew = m - m.T
        oracle = 0.5 * float(np.sum(np.linalg.svd(skew, compute_uv=False)))
        worst = max(worst, abs(norm_sp_batch(skew) - oracle))
    elapsed = time.perf_counter() - t0
    ok = err4 <= 1e-12 and err3 <= 1e-12 and worst <= 1e-10
    _report(
        1, ok,
        f"spectral norm: 4x4 block (3,1) err {err4:.1e}, 3d vector (1,2,2) err "
        f"{err3:.1e}, worst of 1000 random skew vs half-nuclear oracle {worst:.1e} <= 1e-10",
        elapsed, 1.0,
    )


def test_ac02_monopole_margin_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.1, 10.0, size=1000)
    pts = dirs * radii[:, None]
    worst = 0.0
    for m in (1, 2, 4):
        vals = norm_sp_batch(MonopoleField(m).field_matrix_batch(pts)) * radii**2
        worst = max(worst, float(np.max(np.abs(vals - abs(m) / 2.0))))
    elapsed = time.perf_counter() - t0
    _report(
        2, worst <= 1e-10,
        f"monopole margin |B|_sp |x|^2 = |m|/2 at 1000 points, m in (1,2,4): "
        f"max err {worst:.1e} <= 1e-10",
        elapsed, 1.0,
    )


def test_ac03_spherical_landau_table():
    t0 = time.perf_counter()
    ok = True
    for m in range(-6, 7):
        k_max = 20 - ((20 - abs(m)) % 2)
        spec = spectrum(m, k_max)
        for lv in spec.levels:
            ok = ok and lv.value == Fraction(lv.k * (lv.k + 2) - m * m, 4)
            ok = ok and lv.multiplicity == lv.k + 1
        ok = ok and spec.levels[0].k == abs(m)
        ok = ok and counting_check(m, k_max)
    elapsed = time.perf_counter() - t0
    _report(
        3, ok,
        "spherical levels (k(k+2)-m^2)/4 with multiplicity k+1 exact for |m| <= 6, "
        "k <= 20; eigenspace counting consistent",
        elapsed, 1.0,
    )


def test_ac04_disk_threshold():
    t0 = time.perf_counter()
    grid = np.round(np.arange(0.3, 1.2001, 0.1), 10)
    rows = sweep_alpha(grid, method="indicial")
    ok = all(
        (row["kind"] == "LimitCircle") == (row["alpha"] ** 2 < 0.75) for row in rows
    )
    sharp = sweep_alpha([0.8660, 0.8661], method="indicial")
    ok = ok and sharp[0]["kind"] == "LimitCircle" and sharp[1]["kind"] == "LimitPoint"
    est = threshold_bisection(0.3, 1.2, method="solve")
    bisect_err = abs(est - SQRT3_2)
    ok = ok and bisect_err <= 0.05
    elapsed = time.perf_counter() - t0
    _report(
        4, ok,
        f"endpoint kind flips LimitCircle->LimitPoint at alpha^2 = 3/4 "
        f"(0.8660 vs 0.8661); solver bisection {est:.4f} within {bisect_err:.4f} <= 0.05 "
        f"of sqrt(3)/2",
        elapsed, 30.0,
    )


def test_ac05_monopole_esa_verdicts():
    t0 = time.perf_counter()
    ok = True
    for m in (1, -1, 2, -2, 3, -3, 4, -4):
        prob = reduce_monopole(m)
        vi = esa_verdict_radial([prob], method="indicial")[0]
        vs = esa_verdict_radial([prob], method="solve")[0]
        expected = abs(m) >= 2
        ok = ok and vi.esa is expected and vs.esa is expected
    elapsed = time.perf_counter() - t0
    _report(
        5, ok,
        "monopole operator essentially self-adjoint iff |m| >= 2 (m = +/-1..4), "
        "indicial and solver classifications agree",
        elapsed, 10.0,
    )


def test_ac06_landau_level_from_above():
    t0 = time.perf_counter()
    frozen = {5.0: 1.1529807731074, 10.0: 0.9922212013325, 20.0: 0.9922075306392}
    field = ConstantField(plane_two_form(1.0))
    measured = []
    ok = True
    for side in (5.0, 10.0, 20.0):
        half = side / 2.0
        op = assemble(field, axis_box([-half, -half], [half, half]), 0.25)
        vals, _ = op.lowest_eigenvalues(k=1)
        lam = float(vals[0])
        measured.append(lam)
        ok = ok and abs(lam - frozen[side]) <= 1e-6
    discrete_floor = 1.0 - 0.25**2 / 8.0
    ok = ok and measured[0] > measured[1] > measured[2] > discrete_floor
    ok = ok and 0.9 <= measured[2] <= 1.1
    elapsed = time.perf_counter() - t0
    _report(
        6, ok,
        f"lambda_1 = {measured[0]:.6f} > {measured[1]:.6f} > {measured[2]:.6f} "
        f"decreasing toward |B|_sp = 1 from above as the box doubles "
        f"(> {discrete_floor:.7f}); side-20 value in [0.9, 1.1]; frozen to 1e-6",
        elapsed, 120.0,
    )


def test_ac07_gauge_invariance():
    t0 = time.perf_counter()
    disk = Disk2D(1.0)
    base = ConstantField(plane_two_form(1.0))
    poly = Polynomial(terms=[(1.0, (2, 0)), (-3.0, (1, 1))])  # x^2 - 3xy
    op_a = assemble(base, disk, 0.05)
    op_b = assemble(GaugeShiftField(base, poly), disk, 0.05)
    va, _ = op_a.lowest_eigenvalues(k=10)
    vb, _ = op_b.lowest_eigenvalues(k=10)
    eig_err = float(np.max(np.abs(va - vb)))
    phase = np.exp(1j * poly.value(op_a.grid.sites))
    rng = np.random.default_rng(3)
    form_err = 0.0
    for _ in range(8):
        u = rng.normal(size=op_a.n_sites) + 1j * rng.normal(size=op_a.n_sites)
        qa = op_a.quadratic_form(u)
        qb = op_b.quadratic_form(phase * u)
        form_err = max(form_err, abs(qa - qb) / max(1.0, abs(qa)))
    elapsed = time.perf_counter() - t0
    ok = eig_err <= 1e-8 and form_err <= 1e-8
    _report(
        7, ok,
        f"disk h=0.05, gauge shift by grad(x^2 - 3xy): lowest-10 eigenvalue gap "
        f"{eig_err:.1e} <= 1e-8; quadratic forms under u -> e^(iF) u agree to "
        f"{form_err:.1e} <= 1e-8",
        elapsed, 60.0,
    )


def test_ac08_commutator_bound_slack():
    t0 = time.perf_counter()
    combos = [
        ("constant", ConstantField(plane_two_form(1.0)),
         axis_box([-2.0, -2.0], [2.0, 2.0]), 0.2, 0.0),
        ("disk_ctrex", DiskCounterexampleField(0.3), Disk2D(1.0), 0.05, 0.2),
        ("polytope", PolytopeField(rotated_unit_square()), rotated_unit_square(),
         0.02, 0.0),
    ]
    min_slack = np.inf
    n_rows = 0
    for _, fld, dom, h, delta in combos:
        rows = commutator_bound_test(fld, dom, h, FORM_CONSTANT, delta=delta,
                                     n_random=50)
        n_rows += len(rows)
        min_slack = min(min_slack, min(r["slack"] for r in rows))
    box8 = axis_box([-4.0, -4.0], [4.0, 4.0])
    field = ConstantField(plane_two_form(1.0))
    deficits = [ground_state_deficit(field, box8, h) for h in (0.8, 0.4, 0.2)]
    ratios = (deficits[0] / deficits[1], deficits[1] / deficits[2])
    ok = (min_slack >= 0.0 and n_rows == 306
          and all(d > 0 for d in deficits)
          and ratios[0] >= 2.0 and ratios[1] >= 2.0)
    elapsed = time.perf_counter() - t0
    _report(
        8, ok,
        f"form-bound slack >= 0 on all {n_rows} trials (100 random vectors plus 2 "
        f"low-energy per field, K = {FORM_CONSTANT}), min {min_slack:.2e}; ground-state "
        f"deficit halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} >= 2 (order >= 1)",
        elapsed, 120.0,
    )


def test_ac09_polytope_pointwise_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    verts = rng.normal(size=(3, 2))
    verts = verts - verts.mean(axis=0)
    diam = max(np.linalg.norm(a - b) for a in verts for b in verts)
    triangle = polygon_from_vertices(verts / diam)
    square = rotated_unit_square()

    lo, hi = square.bounding_box()
    cand = np.random.default_rng(55).uniform(lo, hi, size=(40000, 2))
    sq_pts = cand[square.contains(cand)][:10000]
    tri_pts = rng.dirichlet(np.ones(3), size=10000) @ (verts / diam)

    worst = np.inf
    for dom, pts in ((square, sq_pts), (triangle, tri_pts)):
        fld = PolytopeField(dom)
        d2 = np.asarray(dom.distance(pts)) ** 2
        worst = min(worst, float(np.min(fld.exact_b12(pts) * d2)))
        worst = min(worst, float(np.min(
            fld.field_matrix_batch(pts, domain=dom)[:, 0, 1] * d2)))
    elapsed = time.perf_counter() - t0
    ok = len(sq_pts) == 10000 and worst >= 1.0 - 1e-6
    _report(
        9, ok,
        f"b12 * D^2 >= 1 at 10000 interior points of the rotated unit square and a "
        f"random normalized triangle (closed form and finite differences): min "
        f"{worst:.8f} >= 1 - 1e-6",
        elapsed, 5.0,
    )


def test_ac10_criterion_verdicts():
    t0 = time.perf_counter()
    r_disk = scan_margin(DiskCounterexampleField(0.5), Disk2D(1.0))
    r_torus = scan_margin(ToroidalField(2.0, SolidTorus3D(2.0, 1.0)))
    r_dipole = scan_margin(DipoleField((0.0, 0.0, 1.0)))
    r_mono = scan_margin(MonopoleField(4))
    ok = (r_disk.verdict == "BELOW_THRESHOLD"
          and abs(r_disk.liminf_estimate - 0.5) <= 0.01
          and r_torus.verdict == "CONFINING_D2"
          and r_torus.direction_oscillation <= 1e-3
          and r_dipole.verdict == "CONFINING_SINGULAR_POINT"
          and r_mono.verdict == "CONFINING_SINGULAR_POINT"
          and abs(r_mono.liminf_estimate - 2.0) <= 0.01)
    elapsed = time.perf_counter() - t0
    _report(
        10, ok,
        f"verdicts: disk(0.5) {r_disk.verdict} liminf {r_disk.liminf_estimate:.4f} "
        f"= 0.5 +/- 0.01; toroidal(2) {r_torus.verdict} oscillation "
        f"{r_torus.direction_oscillation:.1e}; dipole {r_dipole.verdict}; monopole(4) "
        f"{r_mono.verdict} margin {r_mono.liminf_estimate:.4f} = 2 +/- 0.01",
        elapsed, 60.0,
    )


def test_ac11_truncation_probe_contrast():
    t0 = time.perf_counter()
    disk_rows = hur_hypothesis_probe(DiskCounterexampleField(0.3), Disk2D(1.0))
    disk_hardy = [r["lambda_min_hardy"] for r in disk_rows]
    ok = abs(disk_hardy[0] - 3.180515) <= 2e-3
    for prev, cur in zip(disk_hardy, disk_hardy[1:]):
        ok = ok and cur < prev and (prev - cur) > 0.20 * abs(prev)

    poly_rows = hur_hypothesis_probe(PolytopeField(rotated_unit_square()),
                                     rotated_unit_square())
    poly_hardy = [r["lambda_min_hardy"] for r in poly_rows]
    spread = abs(poly_hardy[-2] - poly_hardy[-1]) / abs(poly_hardy[-2] + poly_hardy[-1])
    ok = ok and all(v > 0 for v in poly_hardy) and spread <= 0.10
    elapsed = time.perf_counter() - t0
    _report(
        11, ok,
        f"hardy-weighted min-eig, delta in (0.1, 0.05, 0.025): disk(0.3) "
        f"{disk_hardy[0]:.4f} -> {disk_hardy[1]:.4f} -> {disk_hardy[2]:.4f} "
        f"(each drop > 20%); polytope stays positive within a 10% band "
        f"(half-spread {spread:.3f})",
        elapsed, 300.0,
    )


def test_ac12_boundary_one_form_assumption():
    t0 = time.perf_counter()
    rep = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0)))
    norms = [z.derivative_norm_sp for z in rep.zeros]
    ok = (len(rep.zeros) == 2
          and all(abs(v - 2.0) <= 0.05 for v in norms)
          and rep.assumption_satisfied is True)
    rep_weak = boundary_one_form_analysis(
        NonToroidalField(Ball3D(1.0), RotationOneForm(0.4)))
    ok = ok and rep_weak.assumption_satisfied is False
    elapsed = time.perf_counter() - t0
    _report(
        12, ok,
        f"rotation one-form on the unit ball: {len(rep.zeros)} boundary zeros with "
        f"|d omega|_sp = {norms[0]:.4f}, {norms[1]:.4f} in 2 +/- 0.05, assumption "
        f"flag {rep.assumption_satisfied}; scaled by 0.4 the flag drops to "
        f"{rep_weak.assumption_satisfied}",
        elapsed, 10.0,
    )
