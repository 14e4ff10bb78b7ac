import numpy as np
import pytest

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
        assert not t.contains([0.0, 0.0, 0.0])

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
        assert lipschitz_check(dom, n_pairs=1500, seed=42) <= 1.0 + 1e-9

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

    def test_triangle_from_vertices(self):
        tri = polygon_from_vertices([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert tri.contains([0.5, 0.5])
        assert not tri.contains([1.5, 1.5])
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
    solve = domains.linprog
    monkeypatch.setattr(domains, "linprog", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    sq = rotated_unit_square()
    rays = sq.near_boundary_rays(64, [0.05, 0.1], rng=np.random.default_rng(13))
    assert len(rays) == 64
    # one Chebyshev solve at construction, then two LPs per coordinate
    assert len(calls) == 1 + 2 * sq.dim
    assert all(np.array_equal(a, b) for a, b in zip(sq.bounding_box(), (lo, hi)))


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
