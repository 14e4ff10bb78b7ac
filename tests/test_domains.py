import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinement_lab.domains import (
    AffineFunctional,
    Annulus2D,
    Ball3D,
    Disk2D,
    Polytope,
    PuncturedSpace,
    SolidTorus3D,
    axis_box,
    domain_from_json,
    lipschitz_check,
    polygon_from_vertices,
    rotated_unit_square,
)
from confinement_lab.errors import DomainError, RangeError, ValidationError
from confinement_lab.exterior import central_difference_batch
from confinement_lab.fields import ToroidalField


ALL_DOMAINS = [
    Disk2D(1.0),
    Annulus2D(0.5, 2.0),
    Ball3D(1.5),
    SolidTorus3D(3.0, 1.0),
    axis_box([0.0, 0.0], [1.0, 1.0]),
    rotated_unit_square(),
    PuncturedSpace(3),
]


class TestDistances:
    def test_disk(self):
        d = Disk2D(2.0)
        assert d.distance([0.0, 0.0]) == pytest.approx(2.0)
        assert d.distance([1.0, 0.0]) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            d.distance([2.5, 0.0])

    def test_annulus(self):
        a = Annulus2D(1.0, 3.0)
        assert a.distance([1.5, 0.0]) == pytest.approx(0.5)
        assert a.distance([2.8, 0.0]) == pytest.approx(0.2)
        assert a.inradius() == pytest.approx(1.0)
        with pytest.raises(DomainError):
            a.distance([0.5, 0.0])

    def test_ball(self):
        b = Ball3D(1.0)
        assert b.distance([0.25, 0.0, 0.0]) == pytest.approx(0.75)

    def test_torus(self):
        t = SolidTorus3D(3.0, 1.0)
        # On the center circle the distance equals the minor radius.
        assert t.distance([3.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert t.distance([3.5, 0.0, 0.0]) == pytest.approx(0.5)
        assert t.distance([3.0, 0.0, 0.25]) == pytest.approx(0.75)
        assert not t.signed_distance([0.0, 0.0, 0.0]) > 0

    def test_square_distance_is_min_facet_gap(self):
        sq = axis_box([0.0, 0.0], [1.0, 1.0])
        assert sq.distance([0.5, 0.5]) == pytest.approx(0.5)
        assert sq.distance([0.1, 0.6]) == pytest.approx(0.1)
        assert sq.inradius() == pytest.approx(0.5, abs=1e-9)

    def test_punctured(self):
        p = PuncturedSpace(3)
        assert p.distance([0.0, 0.0, 0.1]) == pytest.approx(0.1)
        with pytest.raises(DomainError):
            p.distance([0.0, 0.0, 0.0])

    def test_batched_distance(self):
        d = Disk2D(1.0)
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.25]])
        assert np.allclose(d.distance(pts), [1.0, 0.5, 0.75])


class TestLipschitz:
    @pytest.mark.parametrize("dom", ALL_DOMAINS, ids=lambda d: type(d).__name__)
    def test_distance_is_1_lipschitz(self, dom):
        assert lipschitz_check(dom) <= 1.0 + 1e-9

    def test_distance_bounded_by_boundary_samples(self):
        dom = SolidTorus3D(2.0, 0.7)
        rng = np.random.default_rng(1)
        pts = dom.sample_interior(50, rng)
        boundary, _ = dom._anchors(40, None)
        for x in pts:
            d = dom.distance(x)
            gaps = np.linalg.norm(boundary - x, axis=-1)
            assert d <= np.min(gaps) + 1e-6


class TestRays:
    @pytest.mark.parametrize(
        "dom",
        [Disk2D(1.0), Annulus2D(0.5, 2.0), Ball3D(1.0), SolidTorus3D(3.0, 1.0), rotated_unit_square()],
        ids=lambda d: type(d).__name__,
    )
    def test_depths_realized_exactly(self, dom):
        depths = np.array([1e-1, 1e-2, 1e-3, 1e-4]) * dom.inradius()
        points = dom.near_boundary_rays(16, depths)
        assert points.shape == (16, len(depths), dom.dim)
        for ray in points:
            got = dom.distance(ray)
            assert np.allclose(got, depths, rtol=1e-9, atol=1e-12)

    def test_punctured_example_ray(self):
        p = PuncturedSpace(3)
        points = p.near_boundary_rays(64, [0.1])
        _, dirs = p._anchors(64, None)
        by_dir = {tuple(np.round(u, 6)) for u in dirs}
        # Direction anchors are unit vectors; each sample sits at depth * direction.
        for u, ray in zip(dirs, points):
            assert np.linalg.norm(u) == pytest.approx(1.0)
            assert np.allclose(ray[0], 0.1 * u)
            assert p.distance(ray[0]) == pytest.approx(0.1)
        assert len(by_dir) == 64

    def test_depth_validation(self):
        d = Disk2D(1.0)
        with pytest.raises(RangeError):
            d.near_boundary_rays(4, [0.5, -0.1])
        with pytest.raises(RangeError):
            d.near_boundary_rays(4, [1.5])

    def test_square_mid_edge_anchor_present(self):
        sq = axis_box([0.0, 0.0], [1.0, 1.0])
        anchors, _ = sq._anchors(4, None)
        mids = np.array([[1.0, 0.5], [0.0, 0.5], [0.5, 1.0], [0.5, 0.0]])
        for m in mids:
            assert np.min(np.linalg.norm(anchors - m, axis=-1)) < 1e-9


class TestPolytope:
    def test_functional_normalization(self):
        f = AffineFunctional(normal=[3.0, 4.0], offset=10.0)
        assert np.linalg.norm(f.normal) == pytest.approx(1.0)
        assert f.value([0.0, 0.0]) == pytest.approx(2.0)

    def test_empty_interior_rejected(self):
        with pytest.raises(ValidationError):
            Polytope([
                AffineFunctional(normal=[1.0, 0.0], offset=0.0),
                AffineFunctional(normal=[-1.0, 0.0], offset=0.5),
            ])

    def test_unbounded_rejected(self):
        with pytest.raises(ValidationError):
            Polytope([
                AffineFunctional(normal=[1.0, 0.0], offset=-1.0),
                AffineFunctional(normal=[0.0, 1.0], offset=-1.0),
            ])

    def test_thin_unbounded_strip_rejected(self):
        # The strip -1 < x < 0 has inradius 0.5 but no bound along y.
        with pytest.raises(ValidationError, match="^polytope appears unbounded$"):
            Polytope([
                AffineFunctional(normal=[1.0, 0.0], offset=0.0),
                AffineFunctional(normal=[-1.0, 0.0], offset=-1.0),
            ])

    def test_triangle_from_vertices(self):
        tri = polygon_from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert tri.signed_distance([0.5, 0.5]) > 0
        assert not tri.signed_distance([1.5, 1.5]) > 0
        # Distance to the diagonal edge x + y = 2 from the origin corner region.
        assert tri.distance([0.2, 0.2]) == pytest.approx(0.2)

    def test_rotated_unit_square_generic_normals(self):
        sq = rotated_unit_square()
        for f in sq.functionals:
            assert abs(f.normal[0]) > 1e-3
        assert sq.inradius() == pytest.approx(0.5, abs=1e-9)

    def test_4d_box(self):
        box = axis_box([-1.0] * 4, [1.0] * 4)
        assert box.dim == 4
        assert box.distance([0.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert box.distance([0.5, 0.0, 0.0, 0.0]) == pytest.approx(0.5)


def test_polytope_scan_solves_its_bounding_box_once(monkeypatch):
    from confinement_lab import domains

    sq = rotated_unit_square()
    lo, hi = sq.bounding_box()
    calls = []
    enumerate_vertices = domains._vertices
    monkeypatch.setattr(domains, "_vertices",
                        lambda *a: calls.append(1) or enumerate_vertices(*a))
    sq = rotated_unit_square()
    rays = sq.near_boundary_rays(64, [0.05, 0.1], rng=np.random.default_rng(13))
    assert len(rays) == 64
    # two enumerations at construction, for the Chebyshev ball and the box
    assert len(calls) == 2
    sq.sample_interior(500, np.random.default_rng(0))
    assert len(calls) == 2
    assert all(np.array_equal(a, b) for a, b in zip(sq.bounding_box(), (lo, hi)))



def _linprog_geometry(functionals):
    """Chebyshev ball and bounding box of ``{x : L_i(x) < 0}`` from HiGHS, with
    the same 1e6 box rows; the ValidationError message where it fails."""
    from scipy.optimize import linprog

    N = np.array([f.normal for f in functionals])
    off = np.array([f.offset for f in functionals])
    k, d = N.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([N, np.ones((k, 1))]), b_ub=-off,
                  bounds=[(-1e6, 1e6)] * d + [(0, 1e6)], method="highs")
    if res.status == 2 or res.x[-1] <= 0:  # infeasible, or feasible with no interior
        return "polytope has empty interior"
    if res.x[-1] >= 1e5:
        return "polytope appears unbounded"
    box = [[linprog(sign * np.eye(d)[i], A_ub=N, b_ub=-off, bounds=[(-1e6, 1e6)] * d,
                    method="highs").x[i] for i in range(d)] for sign in (1.0, -1.0)]
    return res.x[-1], np.array(box[0]), np.array(box[1])


def _random_polytope(rng, d):
    """Bounded: 2d facets along the axes of a random rotation, plus random
    facets tangent to spheres about the origin."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    normals = np.vstack([q, -q, rng.normal(size=(int(rng.integers(0, 6)), d))])
    offsets = -rng.uniform(0.3, 2.0, size=len(normals)) * np.linalg.norm(normals, axis=1)
    return [AffineFunctional(normal=n, offset=o) for n, o in zip(normals, offsets)]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_closed_form_geometry_matches_linprog(d, seed):
    fns = _random_polytope(np.random.default_rng(seed), d)
    poly = Polytope(fns)
    r, lo, hi = _linprog_geometry(fns)
    assert abs(poly.inradius() - r) <= 1e-12
    got_lo, got_hi = poly.bounding_box()
    assert np.max(np.abs(got_lo - lo)) <= 1e-12
    assert np.max(np.abs(got_hi - hi)) <= 1e-12
    center = poly.chebyshev_center()
    assert poly.signed_distance(center) > 0
    assert abs(poly.distance(center) - poly.inradius()) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_rejects_what_linprog_rejects(seed):
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    fns = _random_polytope(rng, d)
    n = fns[0].normal
    # Facets 0 and d (opposite) replaced by the slab 0.5 - w < n . x < 0.5, of width w.
    slab = lambda w: fns[1:d] + fns[d + 1:] + [AffineFunctional(n, -0.5),
                                                AffineFunctional(-n, 0.5 - w)]
    cone = [AffineFunctional(normal=np.abs(rng.normal(size=d)) + 0.1, offset=-1.0)
            for _ in range(d + 2)]
    for fs in (slab(0.0), slab(-0.25), cone):
        expected = _linprog_geometry(fs)
        assert isinstance(expected, str)
        with pytest.raises(ValidationError) as err:
            Polytope(fs)
        assert str(err.value) == expected

class TestJson:
    @pytest.mark.parametrize("dom", ALL_DOMAINS, ids=lambda d: type(d).__name__)
    def test_roundtrip(self, dom):
        clone = domain_from_json(dom.to_json())
        rng = np.random.default_rng(9)
        pts = dom.sample_interior(20, rng)
        assert np.allclose(clone.distance(pts), dom.distance(pts))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            domain_from_json({"kind": "moebius"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            domain_from_json({"kind": "disk2d", "radius": 1.0, "color": "red"})


# ---------------------------------------------------------------------------
# the sign contract: signed_distance(x) > 0 is the interior test

_norm = lambda x: np.linalg.norm(x, axis=-1)
_facets_negative = lambda dom, x: np.all(dom.values(x) < 0.0, axis=-1)

# Each kind's strict interior, written out independently of signed_distance.
SIGN_CASES = {
    "disk": (Disk2D(1.0), lambda dom, x: _norm(x) < dom.radius),
    "annulus": (Annulus2D(0.5, 2.0),
                lambda dom, x: (_norm(x) > dom.r_in) & (_norm(x) < dom.r_out)),
    "ball": (Ball3D(1.5), lambda dom, x: _norm(x) < dom.radius),
    "torus": (SolidTorus3D(3.0, 1.0), lambda dom, x: np.sqrt(
        (_norm(x[..., :2]) - dom.major_radius) ** 2 + x[..., 2] ** 2) < dom.minor_radius),
    "box": (axis_box([0.0, 0.0], [1.0, 1.0]), _facets_negative),
    "rotated-square": (rotated_unit_square(), _facets_negative),
    "triangle": (polygon_from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]), _facets_negative),
    **{f"punctured-{d}": (PuncturedSpace(d), lambda dom, x: _norm(x) > 0.0) for d in (2, 3, 4)},
}

_coords = st.floats(-4.0, 4.0) | st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 5e-324, 1e300, math.nan, math.inf, -math.inf])


@pytest.mark.parametrize("kind", SIGN_CASES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_positive_signed_distance_is_the_interior(kind, data):
    dom, interior = SIGN_CASES[kind]
    d = dom.dim
    anchors, inwards = dom._anchors(16, np.random.default_rng(0))
    picks = data.draw(st.lists(st.integers(0, len(anchors) - 1), max_size=6))
    rows = [
        np.array(data.draw(st.lists(st.lists(_coords, min_size=d, max_size=d), max_size=12)),
                 dtype=float).reshape(-1, d),
        anchors[picks],                                   # exactly on the boundary
        anchors[picks] - 1e3 * inwards[picks],            # far outside
        np.full((data.draw(st.integers(0, 2)), d), math.nan),
    ]
    x = np.concatenate(rows)
    # 1e300 and inf rows overflow or cancel to NaN alike in both formulas
    with np.errstate(over="ignore", invalid="ignore"):
        want = interior(dom, x)
        assert np.array_equal(dom.signed_distance(x) > 0, want)
        for row, inside in zip(x[:3], want):
            assert bool(dom.signed_distance(row) > 0) == inside
        if np.all(want):
            assert np.array_equal(dom.distance(x), dom.signed_distance(x))
        else:
            with pytest.raises(DomainError):
                dom.distance(x)


def test_torus_core_distance_once_per_call(monkeypatch):
    dom = SolidTorus3D(3.0, 1.0)
    calls = []
    core = SolidTorus3D._core_dist
    monkeypatch.setattr(SolidTorus3D, "_core_dist",
                        lambda self, x: calls.append(1) or core(self, x))
    x = np.array([[3.5, 0.0, 0.0], [0.0, 3.0, 0.25]])
    for evaluate in (dom.distance, ToroidalField(2.0, dom).potential,
                     lambda x: central_difference_batch(lambda p: p, x, 3, domain=dom)):
        calls.clear()
        evaluate(x)
        assert len(calls) == 1
