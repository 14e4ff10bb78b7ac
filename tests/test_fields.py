import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from confinement_lab.domains import (
    Ball3D,
    Disk2D,
    Polytope,
    PuncturedSpace,
    SolidTorus3D,
    axis_box,
    polygon_from_vertices,
    rotated_unit_square,
)
from confinement_lab import fields
from confinement_lab.errors import DomainError, SingularityError, SolverError, ValidationError
from confinement_lab.exterior import central_difference_batch, norm_sp_batch
from confinement_lab.fields import (
    AzimuthalOneForm,
    ConstantField,
    DiskCounterexampleField,
    DipoleField,
    GaugeShiftField,
    MonopoleField,
    MultipoleField,
    NonToroidalField,
    Polynomial,
    PolytopeField,
    RotationOneForm,
    ToroidalField,
    _SphereSurface,
    _TorusSurface,
    boundary_one_form_analysis,
    field_from_json,
)

RNG = np.random.default_rng(20240817)


def fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# polynomial helper


class TestPolynomial:
    def test_value_and_gradient_match_fd(self):
        p = Polynomial(terms=[(1.0, (2, 0)), (-3.0, (1, 1))])  # x^2 - 3xy
        for _ in range(10):
            x = RNG.normal(size=2)
            assert p.value(x) == pytest.approx(x[0] ** 2 - 3 * x[0] * x[1], rel=1e-12)
            assert np.allclose(p.gradient(x), fd_gradient(p.value, x), atol=1e-6)

    def test_batched(self):
        p = Polynomial(terms=[(2.0, (0, 3))])
        X = RNG.normal(size=(5, 4, 2))
        assert p.value(X).shape == (5, 4)
        assert p.gradient(X).shape == (5, 4, 2)
        assert np.allclose(p.value(X), 2.0 * X[..., 1] ** 3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Polynomial(terms=[])
        with pytest.raises(ValidationError):
            Polynomial(terms=[(1.0, (1, -1))])
        with pytest.raises(ValidationError):
            Polynomial(terms=[(1.0, (1, 0)), (1.0, (1, 0, 0))])

    def test_json_round_trip(self):
        p = Polynomial(terms=[(1.5, (2, 0, 1))])
        q = Polynomial.from_json(p.to_json())
        x = RNG.normal(size=3)
        assert q.value(x) == pytest.approx(p.value(x))


# ---------------------------------------------------------------------------
# constant field


class TestConstantField:
    def test_symmetric_gauge(self):
        f = ConstantField(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        a = f.potential(np.array([0.3, -0.7]))
        assert np.allclose(a, [0.35, 0.15])  # (1/2)(-y, x)

    def test_field_matches_input_everywhere(self):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 3.0, -3.0
        m[2, 3], m[3, 2] = 1.0, -1.0
        f = ConstantField(m)
        X = RNG.normal(size=(7, 4))
        mats = f.field_matrix_batch(X)
        assert np.allclose(mats, m)
        assert norm_sp_batch(mats[0]) == pytest.approx(4.0, abs=1e-12)

    def test_fd_of_potential_recovers_field(self):
        m = np.array([[0.0, 2.5], [-2.5, 0.0]])
        f = ConstantField(m)
        B = central_difference_batch(f.potential, np.array([0.4, 1.1]), 2)
        assert np.allclose(B, m, atol=1e-9)


# ---------------------------------------------------------------------------
# disk counterexample


class TestDiskCounterexample:
    def test_frozen_point_values(self):
        f = DiskCounterexampleField(0.5)
        a = f.potential(np.array([0.5, 0.0]))
        assert np.allclose(a, [0.0, -0.5])  # alpha * (−y, x)/(r−1) at r = 1/2
        B = f.field_matrix_batch(np.array([0.5, 0.0]))
        assert B[0, 1] == pytest.approx(-3.0, rel=1e-14)  # alpha (r−2)/(r−1)^2 = −6 alpha

    def test_margin_exact(self):
        f = DiskCounterexampleField(0.7)
        r = np.array([0.2, 0.9, 0.999])
        pts = np.stack([r, np.zeros_like(r)], axis=-1)
        margins = norm_sp_batch(f.field_matrix_batch(pts)) * (1.0 - r) ** 2
        assert np.allclose(margins, f.margin_exact(r), rtol=1e-12)

    def test_fd_matches_closed_form(self):
        f = DiskCounterexampleField(0.5)
        for _ in range(5):
            x = RNG.uniform(-0.5, 0.5, size=2)
            B_fd = central_difference_batch(f.potential, x, 2, domain=Disk2D(1.0))
            assert np.allclose(B_fd, f.field_matrix_batch(x), rtol=1e-6)

    def test_alpha_range_enforced(self):
        for bad in (0.0, -0.1, math.sqrt(3) / 2, 0.87, 1.5):
            with pytest.raises(ValidationError):
                DiskCounterexampleField(bad)
        DiskCounterexampleField(0.8660)  # just below the threshold

    def test_singular_at_unit_circle(self):
        f = DiskCounterexampleField(0.3)
        with pytest.raises(SingularityError):
            f.potential(np.array([1.0, 0.0]))
        with pytest.raises(SingularityError):
            f.field_matrix_batch(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# monopole


class TestMonopole:
    def test_frozen_field_values(self):
        f = MonopoleField(2)
        B = f.field_matrix_batch(np.array([0.0, 0.0, 1.0]))
        assert B[0, 1] == pytest.approx(1.0, abs=1e-14)  # axial (m/2) zhat
        assert abs(B[1, 2]) < 1e-14 and abs(B[2, 0]) < 1e-14

    def test_norm_sp_is_half_charge_over_r2(self):
        f = MonopoleField(-3)
        X = RNG.normal(size=(20, 3))
        r = np.linalg.norm(X, axis=-1)
        assert np.allclose(norm_sp_batch(f.field_matrix_batch(X)) * r**2, 1.5, rtol=1e-12)

    def test_patches_differentiate_to_the_same_field(self):
        # z > 0 takes the north patch, z < 0 the south patch.
        f = MonopoleField(1)
        for x in ([0.8, -0.2, 0.05], [0.3, 0.4, -0.1]):
            x = np.array(x)
            closed = f.field_matrix_batch(x)
            B = central_difference_batch(f.potential, x, 3, domain=PuncturedSpace(3))
            assert np.allclose(B, closed, rtol=1e-5, atol=1e-8)

    def test_auto_patch_avoids_strings(self):
        f = MonopoleField(2)
        # The negative z-axis is the north patch's string, the positive one the
        # south patch's; the patch chosen by the sign of z is regular on both.
        for z in (-1.0, 2.0):
            assert np.allclose(f.potential(np.array([0.0, 0.0, z])), 0.0)

    def test_origin_singular(self):
        f = MonopoleField(1)
        with pytest.raises(SingularityError):
            f.potential(np.zeros(3))
        with pytest.raises(SingularityError):
            f.field_matrix_batch(np.zeros(3))

    def test_flux_quantization(self):
        assert MonopoleField(5).flux_through_sphere() == pytest.approx(10 * math.pi)
        # numerically: B is radial with |B| = m/(2 r^2), so flux = 4 pi r^2 * m/(2 r^2)
        f = MonopoleField(5)
        x = np.array([0.3, -1.2, 0.4])
        r = np.linalg.norm(x)
        radial = norm_sp_batch(f.field_matrix_batch(x)) * 4 * math.pi * r**2
        assert radial == pytest.approx(abs(f.flux_through_sphere()), rel=1e-12)

    def test_integer_charge_required(self):
        with pytest.raises(ValidationError):
            MonopoleField(2.5)
        with pytest.raises(ValidationError):
            MonopoleField(True)
        MonopoleField(0)  # zero flux is a legal (trivial) member


# ---------------------------------------------------------------------------
# dipole


class TestDipole:
    def test_frozen_axial_values(self):
        f = DipoleField((0.0, 0.0, 1.0))
        B = f.field_matrix_batch(np.array([0.0, 0.0, 1.0]))
        assert B[0, 1] == pytest.approx(2.0, abs=1e-14)  # 3(V.xhat)xhat − V = 2 zhat
        B_eq = f.field_matrix_batch(np.array([1.0, 0.0, 0.0]))
        assert B_eq[0, 1] == pytest.approx(-1.0, abs=1e-14)

    def test_norm_formula(self):
        f = DipoleField((0.0, 0.0, 1.0))
        X = RNG.normal(size=(30, 3))
        r = np.linalg.norm(X, axis=-1)
        c = X[..., 2] / r
        expect = np.sqrt(3 * c**2 + 1) / r**3
        assert np.allclose(norm_sp_batch(f.field_matrix_batch(X)), expect, rtol=1e-12)

    def test_nonvanishing_and_homogeneous(self):
        f = DipoleField((1.0, -2.0, 0.5))
        X = RNG.normal(size=(50, 3))
        norms = norm_sp_batch(f.field_matrix_batch(X))
        assert np.all(norms > 0)
        assert np.allclose(norm_sp_batch(f.field_matrix_batch(2.0 * X)), norms / 8.0, rtol=1e-12)

    def test_potential_differentiates_to_field(self):
        f = DipoleField((0.3, 0.9, -0.1))
        for _ in range(5):
            x = RNG.normal(size=3)
            B = central_difference_batch(f.potential, x, 3, domain=PuncturedSpace(3))
            assert np.allclose(B, f.field_matrix_batch(x), rtol=1e-5, atol=1e-8)

    def test_direction_normalized(self):
        f = DipoleField((0.0, 0.0, 7.0))
        assert np.allclose(f.direction, [0, 0, 1])
        with pytest.raises(ValidationError):
            DipoleField((0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# multipole tower


class TestMultipole:
    def test_degree_zero_is_charge_two_monopole(self):
        f = MultipoleField([])
        x = np.array([0.4, -0.2, 0.9])
        assert np.allclose(
            f.field_matrix_batch(x), MonopoleField(2).field_matrix_batch(x), rtol=1e-12
        )

    def test_degree_one_matches_dipole_closed_form(self):
        v = np.array([0.0, 0.0, 1.0])
        dip = DipoleField(v)
        for x in ([0.5, 0.2, 0.8], [1.5, -0.4, 0.1], [0.0, 0.0, 2.0]):
            x = np.array(x)
            B_fd = MultipoleField([v]).field_matrix_batch(x)
            assert np.allclose(B_fd, dip.field_matrix_batch(x), rtol=1e-6)

    def test_degree_one_potential_matches_dipole(self):
        v = np.array([0.2, -1.0, 0.4])
        f = MultipoleField([v])
        dip = DipoleField(v)
        x = np.array([0.9, 0.3, -0.5])
        assert np.allclose(f.potential(x), dip.potential(x), rtol=1e-8)

    def test_degree_two_symmetric_in_directions(self):
        x = np.array([0.7, 0.1, 1.1])
        B1 = MultipoleField([(0, 0, 1), (1, 0, 0)]).field_matrix_batch(x)
        B2 = MultipoleField([(1, 0, 0), (0, 0, 1)]).field_matrix_batch(x)
        assert np.allclose(B1, B2, rtol=1e-4, atol=1e-8)

    def test_origin_rejected(self):
        with pytest.raises(SingularityError):
            MultipoleField([(0, 0, 1)]).field_matrix_batch(np.zeros(3))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValidationError, match="multipole direction must be nonzero"):
            MultipoleField([(0, 0, 0), (1, 0, 0)])
        with pytest.raises(ValidationError, match="multipole direction must be nonzero"):
            MultipoleField([(0, 0, 0)])

    @staticmethod
    def nested_reference(fn, pt, dirs, rel_step=1e-2):
        """The per-point recursion the batched multipoles replace, with the
        step taken from the same row norm as the batched code."""

        def nested(p, remaining, h):
            if not remaining:
                return fn(p)
            v, rest = remaining[0], remaining[1:]
            return (nested(p - h * v, rest, h) - nested(p + h * v, rest, h)) / (2.0 * h)

        h = rel_step * fields._row_norms(pt[None])[0]
        return (4.0 * nested(pt, dirs, 0.5 * h) - nested(pt, dirs, h)) / 3.0

    @pytest.mark.parametrize("degree", range(5))
    def test_batch_rows_equal_per_point_recursion(self, degree):
        rng = np.random.default_rng(degree)
        f = MultipoleField(list(rng.normal(size=(degree, 3))))
        unit = [v / np.linalg.norm(v) for v in f.directions]
        X = rng.normal(size=(24, 3)) * rng.uniform(0.2, 5.0, size=(24, 1))
        mats, pots = f.field_matrix_batch(X), f.potential(X)
        for x, mat, pot in zip(X, mats, pots):
            ref = self.nested_reference(MonopoleField(2)._closed_field, x, unit)
            np.testing.assert_array_equal(mat, ref)
            np.testing.assert_array_equal(mat, f.field_matrix_batch(x))
            if degree:
                ref = self.nested_reference(DipoleField(f.directions[0]).potential, x,
                                            f.directions[1:])
                np.testing.assert_array_equal(pot, ref)
            np.testing.assert_array_equal(pot, f.potential(x))
        np.testing.assert_array_equal(f.field_matrix_batch(X.reshape(4, 6, 3)),
                                      mats.reshape(4, 6, 3, 3))


# ---------------------------------------------------------------------------
# polytope field


class TestPolytopeField:
    def test_requires_generic_normals(self):
        with pytest.raises(ValidationError):
            PolytopeField(axis_box([0, 0], [1, 1]))
        PolytopeField(rotated_unit_square())

    def test_fd_field_vs_closed_b12(self):
        dom = rotated_unit_square()
        f = PolytopeField(dom)
        pts = dom.sample_interior(200, np.random.default_rng(7))
        pts = pts[dom.distance(pts) >= 1e-3]
        b12 = f.field_matrix_batch(pts)[..., 0, 1]
        exact = f.exact_b12(pts)
        # central differences of 1/L terms only inflate the coefficient
        assert np.all(b12 >= exact * (1 - 1e-9))
        assert np.all(b12 <= exact * 1.001)

    def test_margin_at_least_one(self):
        dom = polygon_from_vertices([(0.1, 0.0), (1.3, 0.4), (0.6, 1.5)])
        f = PolytopeField(dom)
        pts = dom.sample_interior(200, np.random.default_rng(11))
        pts = pts[dom.distance(pts) >= 1e-3]
        margin = norm_sp_batch(f.field_matrix_batch(pts)) * dom.distance(pts) ** 2
        assert np.all(margin >= 1.0 - 1e-9)

    def test_singular_on_facet(self):
        dom = rotated_unit_square()
        f = PolytopeField(dom)
        c = dom.chebyshev_center()
        n = dom.functionals[0].normal
        p = c - (np.dot(n, c) + dom.functionals[0].offset) * n  # exact facet projection
        with pytest.raises(SingularityError):
            f.potential(p)


# ---------------------------------------------------------------------------
# toroidal / non-toroidal blow-up fields


class TestToroidalField:
    def test_alpha_validated(self):
        dom = SolidTorus3D(3.0, 1.0)
        with pytest.raises(ValidationError):
            ToroidalField(0.5, dom)
        ToroidalField(1.0, dom)

    def test_norm_matches_derived_closed_form(self):
        # azimuthal A0 is closed, so |B|_sp = alpha |A0| / D^(alpha+1) with |A0| = 1/rho
        dom = SolidTorus3D(3.0, 1.0)
        f = ToroidalField(2.0, dom)
        phi, psi, s = 0.3, 1.1, 0.5
        rho = 3.0 + s * math.cos(psi)
        x = np.array([rho * math.cos(phi), rho * math.sin(phi), s * math.sin(psi)])
        D = dom.distance(x)
        norm = norm_sp_batch(f.field_matrix_batch(x))
        assert norm == pytest.approx(2.0 / (rho * D**3), rel=1e-4)

    def test_direction_constant_along_inward_ray(self):
        dom = SolidTorus3D(3.0, 1.0)
        f = ToroidalField(1.5, dom)
        anchor = np.array([3.0 + math.cos(0.8), 0.0, math.sin(0.8)])
        inward = np.array([-math.cos(0.8), 0.0, -math.sin(0.8)])
        dirs = []
        for depth in (0.1, 0.01, 0.001):
            x = anchor + depth * inward
            m = f.field_matrix_batch(x)
            dirs.append(m / np.sqrt(np.sum(m**2)))
        assert np.allclose(dirs[0], dirs[1], atol=1e-3)
        assert np.allclose(dirs[1], dirs[2], atol=1e-3)

    def test_outside_domain_rejected(self):
        dom = SolidTorus3D(3.0, 1.0)
        f = ToroidalField(2.0, dom)
        with pytest.raises(DomainError):
            f.potential(np.array([0.0, 0.0, 0.0]))


class TestNonToroidalField:
    def test_requires_ball(self):
        with pytest.raises(ValidationError):
            NonToroidalField(SolidTorus3D(3.0, 1.0))

    def test_center_field_value(self):
        # at the center D == 1 and dD-term is O(|x|), so B ~ d(A0) = 2 scale dx^dy
        f = NonToroidalField(Ball3D(1.0), base_one_form=RotationOneForm(0.4))
        assert norm_sp_batch(f.field_matrix_batch(np.zeros(3))) == pytest.approx(0.8, rel=1e-3)

    def test_blow_up_rate_near_boundary(self):
        f = NonToroidalField(Ball3D(1.0))
        x_dir = np.array([1.0, 0.0, 0.0])
        # along the x-axis A0 = x dy, dD = −dx, so
        # B = (2/D^2 + 2r/D^3) dx^dy = 2 (r + D)/D^3 dx^dy = 2/D^3 dx^dy
        for depth in (1e-2, 1e-3):
            x = (1.0 - depth) * x_dir
            norm = norm_sp_batch(f.field_matrix_batch(x))
            assert norm == pytest.approx(2.0 / depth**3, rel=1e-3)

    def test_potential_is_base_over_squared_distance(self):
        base = RotationOneForm(0.4)
        x = np.random.default_rng(3).uniform(-0.5, 0.5, size=(200, 3))
        f = NonToroidalField(Ball3D(1.5), base)
        want = base(x) / (1.5 - np.linalg.norm(x, axis=-1))[..., None] ** 2
        assert np.array_equal(f.potential(x), want)
        assert "alpha" not in f.to_json()
        with pytest.raises(ValidationError):
            NonToroidalField(Disk2D(1.0), base)


# ---------------------------------------------------------------------------
# gauge shifts


class TestGaugeShift:
    def test_field_bit_identical_closed_form(self):
        base = DiskCounterexampleField(0.5)
        poly = Polynomial(terms=[(1.0, (2, 0)), (-3.0, (1, 1))])
        shifted = GaugeShiftField(base, poly)
        X = RNG.uniform(-0.5, 0.5, size=(40, 2))
        assert np.array_equal(shifted.field_matrix_batch(X), base.field_matrix_batch(X))

    def test_field_bit_identical_fd_path(self):
        dom = SolidTorus3D(3.0, 1.0)
        base = ToroidalField(2.0, dom)
        poly = Polynomial(terms=[(0.5, (1, 1, 0))])
        shifted = GaugeShiftField(base, poly)
        x = np.array([3.2, 0.1, 0.05])
        assert np.array_equal(shifted.field_matrix_batch(x), base.field_matrix_batch(x))

    def test_potential_shifted_by_exact_gradient(self):
        base = ConstantField(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        poly = Polynomial(terms=[(2.0, (1, 1))])
        shifted = GaugeShiftField(base, poly)
        x = np.array([0.3, -0.8])
        assert np.allclose(shifted.potential(x) - base.potential(x), poly.gradient(x))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            GaugeShiftField(MonopoleField(1), Polynomial(terms=[(1.0, (1, 0))]))


# ---------------------------------------------------------------------------
# JSON round trips


class TestOpsAndJson:
    @pytest.mark.parametrize("build", [
        lambda: ConstantField(np.array([[0.0, 2.0], [-2.0, 0.0]])),
        lambda: PolytopeField(rotated_unit_square()),
        lambda: ToroidalField(2.0, SolidTorus3D(3.0, 1.0)),
        lambda: NonToroidalField(Ball3D(1.0), base_one_form=RotationOneForm(0.4)),
        lambda: DiskCounterexampleField(0.5),
        lambda: MonopoleField(4),
        lambda: DipoleField((0.0, 1.0, 0.0)),
        lambda: MultipoleField([(0, 0, 1), (1, 0, 0)]),
        lambda: GaugeShiftField(
            DiskCounterexampleField(0.3), Polynomial(terms=[(1.0, (1, 1))])
        ),
    ])
    def test_json_round_trip(self, build):
        f = build()
        g = field_from_json(f.to_json())
        assert g.to_json() == f.to_json()
        if f.kind == "polytope_field":
            x = f.domain.chebyshev_center()
        elif f.kind == "toroidal":
            x = np.array([3.0, 0.0, 0.0])
        elif f.kind == "nontoroidal":
            x = np.array([0.1, 0.2, 0.0])
        elif f.dim == 2:
            x = np.array([0.3, 0.1])
        else:
            x = np.array([0.5, -0.2, 0.8])
        assert np.allclose(g.field_matrix_batch(x), f.field_matrix_batch(x), rtol=1e-12)

    def test_unknown_kind_and_keys_rejected(self):
        with pytest.raises(ValidationError):
            field_from_json({"kind": "solenoid"})
        with pytest.raises(ValidationError):
            field_from_json({"kind": "monopole", "charge": 2, "spin": 1})
        with pytest.raises(ValidationError):
            field_from_json({"charge": 2})


# ---------------------------------------------------------------------------
# boundary one-form analysis


class TestBoundaryOneForm:
    def test_rotation_form_zeros_at_poles(self):
        f = NonToroidalField(Ball3D(1.0))
        report = boundary_one_form_analysis(f, resolution=32)
        assert len(report.zeros) == 2
        pts = sorted(z.point[2] for z in report.zeros)
        assert pts[0] == pytest.approx(-1.0, abs=1e-6)
        assert pts[1] == pytest.approx(1.0, abs=1e-6)
        for z in report.zeros:
            assert z.derivative_norm_sp == pytest.approx(2.0, abs=1e-6)
        assert report.assumption_satisfied

    @pytest.mark.parametrize("resolution", [24, 48])
    def test_pole_zeros_in_grid_order(self, resolution):
        # Both poles have tangential norm exactly 0; ties keep the grid's
        # order, which lists the north pole before the south pole.
        report = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0)), resolution=resolution)
        assert [z.point.tolist() for z in report.zeros] == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]

    def test_scaled_rotation_form_fails_assumption(self):
        f = NonToroidalField(Ball3D(1.0), base_one_form=RotationOneForm(0.4))
        report = boundary_one_form_analysis(f, resolution=32)
        assert len(report.zeros) == 2
        for z in report.zeros:
            assert z.derivative_norm_sp == pytest.approx(0.8, abs=1e-6)
        assert not report.assumption_satisfied

    class CrossOneForm:
        """x -> w cross x, counting its calls; its pullback to the unit
        sphere vanishes at +-w/|w| with |d omega|_sp = 2|w| there."""

        def __init__(self, w):
            self.w = np.asarray(w, dtype=float)
            self.shapes = []

        @property
        def calls(self):
            return len(self.shapes)

        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            self.shapes.append(x.shape)
            return np.cross(self.w, x)

    @pytest.mark.parametrize("w", [[0.3, -0.5, 0.8], [0.2, 0.1, -0.25]])
    def test_off_grid_zeros_of_tilted_cross_form(self, w):
        w = np.asarray(w)
        f = NonToroidalField(Ball3D(1.0), base_one_form=self.CrossOneForm(w))
        report = boundary_one_form_analysis(f)
        axis = w / np.linalg.norm(w)
        assert len(report.zeros) == 2
        got = sorted((z.point for z in report.zeros), key=lambda p: float(p @ axis))
        np.testing.assert_allclose(got[0], -axis, atol=1e-9)
        np.testing.assert_allclose(got[1], axis, atol=1e-9)
        for z in report.zeros:
            assert z.derivative_norm_sp == pytest.approx(2.0 * np.linalg.norm(w), abs=1e-9)
        assert report.assumption_satisfied == (2.0 * np.linalg.norm(w) > 1.0)

    def test_zero_refinement_evaluation_count(self):
        # deterministic work guard: the coarse grid is one call, and each of
        # the two polar cells of index +1 is refined once
        a0 = self.CrossOneForm([0.0, 0.0, 1.0])
        report = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0), base_one_form=a0))
        assert len(report.zeros) == 2
        assert a0.calls < 8000
        assert a0.shapes[0] == (len(_SphereSurface(1.0).grid(48)), 3)
        # the rest are single refinement points and derivative stencils over the zeros
        assert max(math.prod(s[:-1]) for s in a0.shapes[1:]) <= 3

    def test_one_refinement_per_zero(self, monkeypatch):
        nfev = []

        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        minimize = fields.minimize
        monkeypatch.setattr(fields, "minimize", counted)
        report = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0)))
        assert len(report.zeros) == 2
        # the polar cells are centred on the zeros, where F is exactly 0
        assert nfev == [1, 1]

    class LinearOneForm:
        """x -> M x + c."""

        def __init__(self, M, c=(0.0, 0.0, 0.0)):
            self.M = np.asarray(M, dtype=float)
            self.c = np.asarray(c, dtype=float)

        def __call__(self, x):
            return np.asarray(x, dtype=float) @ self.M.T + self.c

    @staticmethod
    def assert_zeros_at(report, expected, atol=1e-8):
        assert len(report.zeros) == len(expected)
        for e in expected:
            assert min(np.linalg.norm(z.point - e) for z in report.zeros) <= atol

    def test_four_zeros_with_indices_summing_to_two(self):
        # a0 = grad[(u.x)^2 + eps (v.x)]: maxima near +-u (index +1 each),
        # a saddle at v (-1) and a minimum at -v (+1)
        R = Rotation.from_euler("xyz", [0.31, 0.77, 1.13]).as_matrix()
        u, v, eps = R[:, 2], R[:, 0], 0.05
        a0 = self.LinearOneForm(2.0 * np.outer(u, u), eps * v)
        report = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0), base_one_form=a0),
                                            resolution=24)
        c = math.sqrt(1.0 - eps**2 / 4)
        self.assert_zeros_at(report, [v, -v, c * u + eps / 2 * v, -c * u + eps / 2 * v])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.3, 2.0), min_size=2, max_size=2),
           st.floats(-3.0, 3.0))
    def test_symmetric_linear_form_has_six_closed_zeros(self, seed, gaps, lowest):
        # a0 = M x with M symmetric is a gradient: zeros at the eigenvectors
        # +-Q[:, k] (two maxima, two saddles, two minima) and d a0 = 0
        Q = Rotation.random(random_state=seed).as_matrix()
        lam = lowest + np.cumsum([0.0, *gaps])
        a0 = self.LinearOneForm(Q @ np.diag(lam) @ Q.T)
        report = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0), base_one_form=a0),
                                            resolution=24)
        self.assert_zeros_at(report, [s * Q[:, k] for k in range(3) for s in (1.0, -1.0)])
        assert all(z.derivative_norm_sp < 1e-6 for z in report.zeros)
        assert not report.assumption_satisfied

    def test_zeros_on_grid_edges_all_found(self):
        # grad(x^2 + 2y^2 + 3z^2): at resolution 24 the zeros +-x, +-y lie on
        # meridian edges of the grid, midway between two theta rows
        a0 = self.LinearOneForm(np.diag([2.0, 4.0, 6.0]))
        report = boundary_one_form_analysis(NonToroidalField(Ball3D(1.0), base_one_form=a0),
                                            resolution=24)
        self.assert_zeros_at(report, [s * e for e in np.eye(3) for s in (1.0, -1.0)])

    def test_zero_on_a_grid_point_raises(self):
        # a0 = x - p vanishes exactly at the grid point p, which hides the
        # field's turn there from every cell around p
        p = _SphereSurface(1.0).grid(24)[100]
        a0 = self.LinearOneForm(np.eye(3), -p)
        with pytest.raises(SolverError, match="indices sum to 1, not the Euler characteristic 2"):
            boundary_one_form_analysis(NonToroidalField(Ball3D(1.0), base_one_form=a0),
                                       resolution=24)

    def test_one_zero_reached_from_two_cells_raises(self):
        # two zeros of opposite index lie near one grid edge whose end vectors
        # are nearly antiparallel; at resolution 48 that edge adds a spurious
        # +1/-1 pair of cells, whose refinements land on the real zeros again
        rng = np.random.default_rng(6)
        a0 = self.LinearOneForm(0.3 * rng.normal(size=(3, 3)), 0.5 * rng.normal(size=3))
        f = ToroidalField(2.0, SolidTorus3D(3.0, 1.0), a0)
        with pytest.raises(SolverError, match="two cells of nonzero index refined to one zero"):
            boundary_one_form_analysis(f, resolution=48)
        assert len(boundary_one_form_analysis(f, resolution=96).zeros) == 6

    def test_refinement_leaving_its_cell_raises(self, monkeypatch):
        # grad[exp(5 a.x) + exp(5 b.x)] has maxima (index +1) near a and b;
        # started near the other maximum, the north polar cell's refinement
        # ends on a true zero of its index, but outside the cell
        a, b = np.array([0.0, 0.0, 1.0]), np.array([math.sin(1.2), 0.0, math.cos(1.2)])

        def a0(x):
            x = np.asarray(x, dtype=float)
            return 5.0 * (np.exp(5.0 * x @ a)[..., None] * a + np.exp(5.0 * x @ b)[..., None] * b)

        f = NonToroidalField(Ball3D(1.0), base_one_form=a0)
        far = max((z.point for z in boundary_one_form_analysis(f, resolution=24).zeros),
                  key=lambda p: float(p @ b))

        def started_far(gn, x0, radius):
            if np.array_equal(gn.p0, a):
                x0 = gn.frame @ (far / (far @ a) - a)
            return minimize(gn, x0, radius)

        minimize = fields.minimize
        monkeypatch.setattr(fields, "minimize", started_far)
        with pytest.raises(SolverError, match=r"index 1, 1\.09\de\+00 from the centre"):
            boundary_one_form_analysis(f, resolution=24)

    def test_refinement_steps_are_capped_at_the_cell_diameter(self):
        # uncapped Newton steps carry the refinement of one cell of index +1,
        # 1.17 wide, to 2.15 from its centre and off any zero
        rng = np.random.default_rng(124)
        a0 = self.LinearOneForm(rng.normal(size=(3, 3)), 0.5 * rng.normal(size=3))
        report = boundary_one_form_analysis(ToroidalField(2.0, SolidTorus3D(3.0, 1.0), a0),
                                            resolution=24)
        assert len(report.zeros) == 8

    def test_refinement_stops_at_a_singular_jacobian(self):
        # no Newton step exists; the cell's checks then raise SolverError
        class Flat:
            def terms(self, u):
                return np.array([1.0, 0.0]), np.zeros((2, 2))

        res = fields.minimize(Flat(), np.zeros(2), 1.0)
        assert (res.x.tolist(), res.nfev) == ([0.0, 0.0], 1)

    def test_refinement_halves_an_overshooting_step(self):
        # Newton on F = atan(u) from 1.5 lands at -1.694, where |F| is larger;
        # the halved step lowers |F|, and the loop then reaches F = 0 exactly.
        seen = []

        class Atan:
            def terms(self, u):
                seen.append(u.copy())
                return np.arctan(u), np.diag(1.0 / (1.0 + u * u))

        x0 = np.array([1.5, 1.5])
        res = fields.minimize(Atan(), x0, 10.0)
        newton = -np.arctan(x0) * (1.0 + x0 * x0)
        assert np.allclose(seen[1:3], [x0 + newton, x0 + newton / 2], rtol=1e-15)
        assert (res.x.tolist(), res.nfev) == ([0.0, 0.0], 6)

    def test_torus_zeros_sum_to_zero_index(self):
        # the constant form c: zeros where the outward normal is +-c, at
        # +-R e +-r c with e the unit horizontal part of c (indices +1, -1, -1, +1)
        c = np.array([0.6, 0.48, 0.64])
        e = np.array([0.6, 0.48, 0.0]) / math.hypot(0.6, 0.48)
        a0 = self.LinearOneForm(np.zeros((3, 3)), c)
        report = boundary_one_form_analysis(ToroidalField(2.0, SolidTorus3D(3.0, 1.0), a0),
                                            resolution=32)
        self.assert_zeros_at(report, [3.0 * se * e + sc * c for se in (1, -1) for sc in (1, -1)])

    @pytest.mark.parametrize("surface", [_SphereSurface(1.5), _TorusSurface(3.0, 1.0)],
                             ids=["sphere", "torus"])
    def test_surface_normal_broadcasts(self, surface):
        pts = surface.grid(16)
        normals = surface.normal(pts)
        np.testing.assert_array_equal(normals, np.array([surface.normal(p) for p in pts]))
        np.testing.assert_allclose(np.linalg.norm(normals, axis=-1), 1.0, rtol=1e-15)

    def test_azimuthal_form_on_torus_never_vanishes(self):
        f = ToroidalField(2.0, SolidTorus3D(3.0, 1.0))
        report = boundary_one_form_analysis(f, resolution=32)
        assert report.zeros == []
        assert report.assumption_satisfied  # vacuous
        assert report.max_tangential_norm == pytest.approx(0.5, rel=1e-2)  # 1/(R−a)

    def test_azimuthal_singular_on_axis(self):
        with pytest.raises(SingularityError):
            AzimuthalOneForm()(np.array([0.0, 0.0, 1.0]))
