import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinement_lab import criterion
from confinement_lab.cli import main
from confinement_lab.criterion import (
    BELOW_THRESHOLD,
    CONFINING_D2,
    CONFINING_D2_PLANAR,
    CONFINING_SINGULAR_POINT,
    INCONCLUSIVE_GAP,
    OSCILLATION_TOL,
    TREND_FLOOR,
    TREND_SLACK,
    CriterionReport,
    default_depths,
    direction_regularity,
    scan_directions,
    scan_margin,
    singular_point_criterion,
)
from confinement_lab.domains import Ball3D, Disk2D, PuncturedSpace, SolidTorus3D
from confinement_lab.errors import RangeError, SingularityError, ValidationError
from confinement_lab.exterior import axial_matrices, norm_sp_batch
from confinement_lab.fields import (
    ConstantField,
    DipoleField,
    DiskCounterexampleField,
    GaugeShiftField,
    MagneticField,
    MonopoleField,
    Polynomial,
    ToroidalField,
)


class PlanarBlowUpField(MagneticField):
    """Test helper: B = strength / D(x)^2 dx^dy on a disk."""

    kind = "test_planar_blowup"

    def __init__(self, strength, dom):
        self.strength = float(strength)
        self.domain = dom
        self.dim = 2

    def field_matrix_batch(self, x, domain=None):
        x = np.asarray(x, dtype=float)
        d = self.domain.distance(x)
        b = self.strength / d**2
        mats = np.zeros(x.shape[:-1] + (2, 2))
        mats[..., 0, 1] = b
        mats[..., 1, 0] = -b
        return mats


class SpinningDirectionField(MagneticField):
    """Test helper: strong margin but direction spinning with the distance."""

    kind = "test_spinning"

    def __init__(self, dom):
        self.domain = dom
        self.dim = 3

    def field_matrix_batch(self, x, domain=None):
        x = np.asarray(x, dtype=float)
        d = np.asarray(self.domain.distance(x), dtype=float)
        theta = 50.0 * d
        v = np.stack(
            [np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1
        ) * (2.0 / d**2)[..., None]
        mats = np.zeros(x.shape[:-1] + (3, 3))
        mats[..., 1, 2] = v[..., 0]
        mats[..., 2, 1] = -v[..., 0]
        mats[..., 0, 1] = v[..., 2]
        mats[..., 1, 0] = -v[..., 2]
        mats[..., 2, 0] = v[..., 1]
        mats[..., 0, 2] = -v[..., 1]
        return mats


class TiltingDirectionField(MagneticField):
    """Test helper: axial vector (2/D^2)(0.3 D, 0, 1), margin 2 sqrt(1 + 0.09 D^2).

    The direction tends to e_z and its steps shrink with the depth, so the
    field is regular when the ladder runs largest first.
    """

    kind = "test_tilting"

    def __init__(self, dom):
        self.domain = dom
        self.dim = 3

    def field_matrix_batch(self, x, domain=None):
        d = np.asarray(self.domain.distance(np.asarray(x, dtype=float)), dtype=float)
        v = np.stack([0.3 * d, np.zeros_like(d), np.ones_like(d)], axis=-1)
        return axial_matrices(v * (2.0 / d**2)[..., None])


def _direction_distance(a, b):
    d = a - b
    iu = np.triu_indices(d.shape[0], k=1)
    return float(np.sqrt(np.sum(d[iu] ** 2)))


def direction_regularity_loop(directions_by_anchor, tol=OSCILLATION_TOL,
                              slack=TREND_SLACK, floor=TREND_FLOOR):
    """Reference for ``direction_regularity``: a loop over anchors and
    direction pairs.  directions_by_anchor holds per anchor the unit-form
    matrices from the largest depth to the smallest, None where missing."""
    worst = 0.0
    per_anchor = []
    regular = True
    for dirs in directions_by_anchor:
        dirs = [d for d in dirs if d is not None]
        if len(dirs) < 2:
            per_anchor.append(0.0)
            continue
        pairwise = [
            _direction_distance(dirs[i], dirs[j])
            for i in range(len(dirs))
            for j in range(i + 1, len(dirs))
        ]
        osc = max(pairwise)
        per_anchor.append(osc)
        worst = max(worst, osc)
        if osc >= tol:
            regular = False
            continue
        steps = [_direction_distance(dirs[k], dirs[k + 1]) for k in range(len(dirs) - 1)]
        if len(steps) >= 2 and steps[-1] > slack * steps[0] + floor:
            regular = False
    return regular, worst, per_anchor


def scan_payload_loop(report):
    """Reference for the ``scan-criterion`` payload of ``cli run``: the report
    fields but the samples (the CSV's, pinned by ``scan_csv_loop``) and the
    warnings (``report.json``'s top-level list)."""
    return {
        "kind": report.kind,
        "verdict": report.verdict,
        "liminf_estimate": report.liminf_estimate,
        "eta_margin": report.eta_margin,
        "direction_oscillation": report.direction_oscillation,
        "direction_regular": report.direction_regular,
        "theorem_basis": list(report.theorem_basis),
        "excluded": report.excluded,
        "params": report.params,
    }


def scan_csv_loop(report):
    """Reference for the ``scan-criterion`` CSV of ``cli run``, one sample per
    written line."""
    buf = io.StringIO()
    buf.write("anchor,depth,distance,norm_sp,margin,point\n")
    for s in report.samples:
        pt = ";".join("%.17g" % v for v in s["point"])
        buf.write(
            "%d,%.17g,%.17g,%.17g,%.17g,%s\n"
            % (s["anchor"], s["depth"], s["distance"], s["norm_sp"], s["margin"], pt)
        )
    return buf.getvalue()


def run_scan_cli(outdir, field, n_anchors, seed):
    """CSV bytes and report payload of ``cli run`` on a scan-criterion spec."""
    os.makedirs(outdir, exist_ok=True)
    spec = {"schema": 1, "task": "scan-criterion", "output": "scan", "seed": seed,
            "field": field.to_json(), "params": {"anchors": n_anchors}}
    path = os.path.join(outdir, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    assert main(["run", path, "--out", outdir]) == 0
    with open(os.path.join(outdir, "scan.csv"), "rb") as fh:
        csv = fh.read()
    with open(os.path.join(outdir, "scan.report.json"), encoding="utf-8") as fh:
        return csv, json.load(fh)["payload"]


@st.composite
def direction_tables(draw):
    """(anchors, depths, d, d) unit-form tables.  Each ray is one random
    direction perturbed at each depth by a size that shrinks or grows along
    the ray, from 1e-7 to order one.  NaN holes fall anywhere, inside a ray
    too, and a ray may have no direction at all."""
    d = draw(st.sampled_from([2, 3, 4]))
    n_depths = draw(st.integers(1, 6))
    n_anchors = draw(st.integers(1, 8))
    start = draw(st.floats(-5.0, 0.5))
    shrink = draw(st.floats(-1.5, 1.5))
    hole_rate = draw(st.sampled_from([0.0, 0.25, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponent = start - shrink * np.arange(n_depths) + 0.3 * rng.normal(size=(n_anchors, n_depths))
    scale = 10.0 ** np.clip(exponent, -7.0, 0.5)[..., None, None]
    raw = (rng.normal(size=(n_anchors, 1, d, d))
           + scale * rng.normal(size=(n_anchors, n_depths, d, d)))
    skew = raw - np.swapaxes(raw, -1, -2)
    table = skew / norm_sp_batch(skew)[..., None, None]
    holes = rng.random((n_anchors, n_depths)) < hole_rate
    if draw(st.booleans()):
        holes[rng.integers(n_anchors)] = True
    table[holes] = np.nan
    return table


class TestVerdicts:
    def test_disk_counterexample_below_threshold(self):
        report = scan_margin(DiskCounterexampleField(0.5))
        assert report.verdict == BELOW_THRESHOLD
        assert report.liminf_estimate == pytest.approx(0.5, abs=1e-2)
        assert report.eta_margin == report.liminf_estimate - 1.0

    def test_toroidal_confining_with_stable_direction(self):
        dom = SolidTorus3D(3.0, 1.0)
        report = scan_margin(ToroidalField(2.0, dom), dom)
        assert report.verdict == CONFINING_D2
        assert report.direction_regular
        assert report.direction_oscillation < 1e-3
        assert report.liminf_estimate > 1e3

    def test_dipole_confining_at_singular_point(self):
        report = scan_margin(DipoleField((0.0, 0.0, 1.0)))
        assert report.kind == "singular_point"
        assert report.verdict == CONFINING_SINGULAR_POINT
        assert report.liminf_estimate > 1e3

    def test_monopole_margin_is_half_charge(self):
        report = singular_point_criterion(MonopoleField(4))
        assert report.verdict == CONFINING_SINGULAR_POINT
        assert report.liminf_estimate == pytest.approx(2.0, rel=1e-12)
        gap = singular_point_criterion(MonopoleField(2))
        assert gap.verdict == INCONCLUSIVE_GAP
        assert gap.liminf_estimate == pytest.approx(1.0, rel=1e-12)

    def test_planar_blowup_gets_planar_verdict(self):
        dom = Disk2D(1.0)
        report = scan_margin(PlanarBlowUpField(1.2, dom), dom)
        assert report.verdict == CONFINING_D2_PLANAR
        assert report.liminf_estimate == pytest.approx(1.2, rel=1e-12)
        assert report.eta_margin == pytest.approx(0.2, rel=1e-10)

    def test_spinning_direction_blocks_confining_verdict(self):
        dom = Ball3D(1.0)
        report = scan_margin(SpinningDirectionField(dom), dom)
        assert report.liminf_estimate == pytest.approx(2.0, rel=1e-12)
        assert not report.direction_regular
        assert report.verdict == INCONCLUSIVE_GAP
        assert any("direction" in w for w in report.warnings)

    def test_constant_field_margin_vanishes_at_boundary(self):
        dom = Disk2D(1.0)
        report = scan_margin(ConstantField(np.array([[0.0, 5.0], [-5.0, 0.0]])), dom)
        assert report.verdict == BELOW_THRESHOLD


class TestInvariances:
    def test_gauge_shift_margins_bit_identical(self):
        base = DiskCounterexampleField(0.5)
        shifted = GaugeShiftField(base, Polynomial(terms=[(1.0, (2, 0)), (-3.0, (1, 1))]))
        ra = scan_margin(base)
        rb = scan_margin(shifted)
        assert ra.samples["margin"].tolist() == rb.samples["margin"].tolist()
        assert ra.verdict == rb.verdict

    def test_power_of_two_scaling_invariance(self):
        b = 1.5
        f1 = ConstantField(np.array([[0.0, b], [-b, 0.0]]))
        f2 = ConstantField(np.array([[0.0, b / 4], [-b / 4, 0.0]]))
        r1 = scan_margin(f1, Disk2D(1.0), n_anchors=16)
        r2 = scan_margin(f2, Disk2D(2.0), n_anchors=16)
        assert np.array_equal(r1.samples["margin"], r2.samples["margin"])

    def test_margin_linear_in_field_strength(self):
        f1 = ConstantField(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        f2 = ConstantField(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        r1 = scan_margin(f1, Disk2D(1.0), n_anchors=8)
        r2 = scan_margin(f2, Disk2D(1.0), n_anchors=8)
        assert np.array_equal(2.0 * r1.samples["margin"], r2.samples["margin"])

    def test_liminf_is_min_margin_at_smallest_depth(self):
        report = scan_margin(DiskCounterexampleField(0.3))
        depth, margin = report.samples["depth"], report.samples["margin"]
        expect = margin[depth == depth.min()].min()
        assert report.liminf_estimate == expect


class TestDirectionRegularity:
    @staticmethod
    def axial_dirs(vectors):
        return [axial_matrices(v / np.linalg.norm(v)) for v in vectors]

    def test_constant_direction_regular(self):
        dirs = self.axial_dirs([np.array([0.0, 0.0, 1.0])] * 4)
        regular, osc, per = direction_regularity([dirs])
        assert regular and osc == 0.0 and per == [0.0]

    def test_large_oscillation_irregular(self):
        vs = [np.array([math.cos(t), math.sin(t), 0.0]) for t in (0.0, 0.3, 0.6, 0.9)]
        regular, osc, _ = direction_regularity([self.axial_dirs(vs)])
        assert not regular
        assert osc > 0.05

    def test_growing_steps_irregular_even_below_tolerance(self):
        vs = [
            np.array([1.0, 0.0, 0.0]),
            np.array([math.cos(1e-4), math.sin(1e-4), 0.0]),
            np.array([math.cos(2e-4), math.sin(2e-4), 0.0]),
            np.array([math.cos(0.03), math.sin(0.03), 0.0]),
        ]
        regular, osc, _ = direction_regularity([self.axial_dirs(vs)])
        assert osc < 0.05
        assert not regular

    def test_noise_plateau_regular(self):
        rng = np.random.default_rng(3)
        base = np.array([0.0, 0.0, 1.0])
        vs = [base + 1e-4 * rng.normal(size=3) for _ in range(4)]
        regular, osc, _ = direction_regularity([self.axial_dirs(vs)])
        assert regular
        assert osc < 1e-3

    def test_missing_directions_skipped(self):
        dirs = np.full((1, 3, 2, 2), np.nan)
        regular, osc, per = direction_regularity(dirs)
        assert regular and osc == 0.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(direction_tables(), st.floats(0.01, 3.0))
    def test_matches_loop_reference(self, table, tol):
        lists = [[None if np.isnan(m).any() else m for m in ray] for ray in table]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criterion, "OSCILLATION_TOL", tol)
            assert direction_regularity(table) == direction_regularity_loop(lists, tol=tol)


class TestSamplingMechanics:
    def test_default_depths_scale_with_inradius(self):
        assert default_depths(Disk2D(2.0)) == [0.2, 0.02, 0.002, 0.0002]
        assert default_depths(PuncturedSpace(3)) == [0.1, 0.01, 0.001, 0.0001]

    def test_singular_samples_excluded_with_warning(self):
        class RimSingular(DiskCounterexampleField):
            def field_matrix_batch(self, x, domain=None):
                if np.linalg.norm(np.asarray(x, float)) > 0.9995:
                    raise SingularityError("test rim singularity")
                return super().field_matrix_batch(x, domain=domain)

        report = scan_margin(RimSingular(0.5))
        assert report.excluded == 64  # the whole smallest-depth ring
        assert len(report.warnings) >= 64
        # liminf falls back to the next depth: 0.5 * (1 + 1e-3)
        assert report.liminf_estimate == pytest.approx(0.5005, rel=1e-9)
        assert report.verdict == BELOW_THRESHOLD

    def test_scan_evaluates_the_field_in_one_batch(self):
        class Counting(ToroidalField):
            calls = 0

            def field_matrix_batch(self, x, domain=None):
                Counting.calls += 1
                return super().field_matrix_batch(x, domain=domain)

        report = scan_margin(Counting(2.0, SolidTorus3D(2.0, 1.0)), n_anchors=64)
        assert len(report.samples) == 64 * 4
        assert Counting.calls <= 2

    def test_one_singular_sample_excluded_alone(self):
        field = DiskCounterexampleField(0.5)
        clean = scan_margin(field)
        bad = clean.samples[5 * 4 + 2]  # anchor 5, third depth

        class PointSingular(DiskCounterexampleField):
            def field_matrix_batch(self, x, domain=None):
                pts = np.asarray(x, float).reshape(-1, 2)
                if np.any(np.all(pts == bad["point"], axis=-1)):
                    raise SingularityError("test point singularity")
                return super().field_matrix_batch(x, domain=domain)

        report = scan_margin(PointSingular(0.5))
        assert report.excluded == 1
        assert report.warnings == [
            f"anchor 5 depth {bad['depth']:g}: sample excluded (test point singularity)"
        ]
        assert np.array_equal(report.samples, np.delete(clean.samples, 5 * 4 + 2))
        dom = field.domain
        for s in report.samples:
            nsp = float(norm_sp_batch(field.field_matrix_batch(s["point"], domain=dom)))
            dist = float(dom.distance(s["point"]))
            assert s["margin"] == nsp * dist * dist

    def test_all_excluded_rejected(self):
        class AlwaysSingular(DiskCounterexampleField):
            def field_matrix_batch(self, x, domain=None):
                raise SingularityError("test")

        with pytest.raises(ValidationError):
            scan_margin(AlwaysSingular(0.5))

    def test_domain_required(self):
        with pytest.raises(ValidationError):
            scan_margin(ConstantField(np.array([[0.0, 1.0], [-1.0, 0.0]])))

    def test_custom_depths_recorded(self):
        report = scan_margin(DiskCounterexampleField(0.4), depths=[0.05, 0.01], n_anchors=8)
        assert report.params["depths"] == [0.05, 0.01]
        assert set(report.samples["depth"].tolist()) == {0.05, 0.01}

    @pytest.mark.parametrize("depths", [[1e-4, 1e-3, 1e-2, 1e-1], [1e-3, 1e-1, 1e-4, 1e-2]])
    def test_depth_order_does_not_change_the_scan(self, depths):
        dom = Ball3D(1.0)
        field = TiltingDirectionField(dom)
        ladder = [1e-1, 1e-2, 1e-3, 1e-4]
        ref = scan_margin(field, dom, depths=ladder)
        report = scan_margin(field, dom, depths=depths)
        assert ref.verdict == report.verdict == CONFINING_D2
        assert ref.direction_regular and report.direction_regular
        assert report.liminf_estimate == ref.liminf_estimate
        assert report.direction_oscillation == ref.direction_oscillation
        assert report.params["depths"] == ladder
        assert scan_csv_loop(report) == scan_csv_loop(ref)
        directions = scan_directions(field, dom, depths=depths)
        assert directions["regular"]
        assert directions == scan_directions(field, dom, depths=ladder)

    @pytest.mark.parametrize("scan", [scan_margin, scan_directions])
    @pytest.mark.parametrize("field", [DiskCounterexampleField(0.5), MonopoleField(3)],
                             ids=["disk", "punctured"])
    def test_zero_anchors_rejected(self, scan, field):
        with pytest.raises(RangeError, match="need at least one anchor"):
            scan(field, n_anchors=0)

    def test_nan_depth_rejected(self):
        with pytest.raises(RangeError, match="strictly positive"):
            scan_margin(DiskCounterexampleField(0.5), depths=[0.1, math.nan])

    def test_punctured_domain_dispatches_to_singular_point(self):
        report = scan_margin(MonopoleField(4), PuncturedSpace(3))
        assert report.kind == "singular_point"


class TestReportSerialization:
    def test_csv_deterministic_across_runs(self, tmp_path):
        field = DiskCounterexampleField(0.5)
        a, _ = run_scan_cli(str(tmp_path / "a"), field, 64, seed=7)
        b, _ = run_scan_cli(str(tmp_path / "b"), field, 64, seed=7)
        assert a == b
        assert a.splitlines()[0] == b"anchor,depth,distance,norm_sp,margin,point"
        assert len(a.splitlines()) == 1 + 64 * 4

    def test_json_serializable_and_faithful(self, tmp_path):
        field = DiskCounterexampleField(0.5)
        report = scan_margin(field, n_anchors=4)
        csv, back = run_scan_cli(str(tmp_path), field, 4, seed=0)
        assert back["verdict"] == BELOW_THRESHOLD
        assert back["params"]["n_anchors"] == 4
        assert "samples" not in back
        rows = csv.decode().splitlines()[1:]
        assert len(rows) == 16
        assert float(rows[0].split(",")[4]) == report.samples[0]["margin"]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.one_of(
        st.floats(0.1, 0.85).map(DiskCounterexampleField),
        st.integers(1, 4).map(MonopoleField),
        st.floats(1.0, 3.0).map(lambda a: ToroidalField(a, SolidTorus3D(2.0, 1.0)))))
    def test_cli_output_matches_loop_reference(self, seed, n_anchors, field):
        report = scan_margin(field, n_anchors=n_anchors, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            csv, payload = run_scan_cli(tmp, field, n_anchors, seed)
        assert csv == scan_csv_loop(report).encode()
        assert (json.dumps(payload, sort_keys=True)
                == json.dumps(scan_payload_loop(report), sort_keys=True))
