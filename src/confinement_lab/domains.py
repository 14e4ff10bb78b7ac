"""Domains defined by an exact signed distance to the boundary.

Every domain here admits a closed-form distance D(x) to its boundary, which
is what the confinement criterion compares against the field's spectral norm.
A domain kind is defined by ``signed_distance(x)``: D(x) inside, and a value
<= 0 or NaN everywhere else, so ``signed_distance(x) > 0`` is the interior
test.
Supported kinds: planar disk and annulus, 3-d ball, solid torus, convex
polytopes cut out by affine functionals, and punctured Euclidean space (the
boundary is the deleted point).
"""

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ValidationError
from .exterior import TwoForm


class JsonKind:
    """A class whose JSON format is declared once, for both directions.

    ``kind`` names the class in JSON; ``json_keys`` are its constructor
    keywords, stored under attributes of the same names; ``label`` names it
    in unknown-key errors where that differs from ``kind``.
    """

    kind: str
    json_keys = ()
    label = None

    def to_json(self):
        return {"kind": self.kind, **{k: _encode(getattr(self, k)) for k in self.json_keys}}


def _encode(value):
    if isinstance(value, TwoForm):
        value = value.entries
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def _decode(obj, classes, what, decoders):
    """Build the class of ``classes`` that obj["kind"] names from obj's keys,
    each passed through ``decoders[key]`` when present; constructor defaults
    fill the keys obj leaves out."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"{what} JSON must be an object with a 'kind' key")
    # compared, not hashed: a JSON list as the kind is an unknown kind, not a TypeError
    cls = next((c for c in classes if c.kind == obj["kind"]), None)
    if cls is None:
        raise ValidationError(f"unknown {what} kind {obj['kind']!r}")
    _reject_unknown(obj, {"kind", *cls.json_keys}, cls.label or cls.kind)
    return cls(**{k: decoders[k](obj[k]) if k in decoders else obj[k]
                  for k in cls.json_keys if k in obj})


def _reject_unknown(params, known, kind):
    unknown = set(params) - known
    if unknown:
        raise ValidationError(f"unknown keys for {kind}: {sorted(unknown)}")


class Domain(JsonKind, ABC):
    """Open connected region with exact boundary distance.

    ``signed_distance`` is the one definition of a kind: the distance to the
    boundary inside, and a value <= 0 or NaN everywhere else.
    """

    dim: int

    @abstractmethod
    def signed_distance(self, x) -> np.ndarray:
        """D(x) inside, <= 0 or NaN outside; broadcasts over leading axes of x."""

    @abstractmethod
    def inradius(self) -> float:
        pass

    @abstractmethod
    def bounding_box(self):
        """(lo, hi) arrays enclosing the domain; DomainError if unbounded."""

    @abstractmethod
    def _anchors(self, n, rng):
        """n boundary anchors with inward unit normals: (anchors, inwards)."""

    def distance(self, x):
        """Distance to the boundary.  Raises DomainError off the interior."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DomainError(f"point dimension {x.shape[-1]} != domain dimension {self.dim}")
        d = self.signed_distance(x)
        if not np.all(d > 0):
            raise DomainError("distance requested at a point outside the domain")
        return float(d) if np.ndim(d) == 0 else d

    def near_boundary_rays(self, n_points, depths, rng=None):
        """Sample rays marching inward from boundary anchors.

        Parameters
        ----------
        n_points : int
            Number of boundary anchors.
        depths : array_like
            Strictly positive depths below the inradius, any order.
        rng : numpy Generator, optional
            Only consulted by domain kinds without a canonical anchor layout.

        Returns
        -------
        ndarray, shape (n_points, len(depths), d)
            points[i, j] = anchor_i + depths[j] * inward_i, with the
            ``_anchors`` layout and the depths in the given order.
        """
        depths = self._ray_depths(n_points, depths)
        anchors, inwards = self._anchors(int(n_points), rng)
        return anchors[:, None] + depths[None, :, None] * inwards[:, None]

    def _ray_depths(self, n_points, depths):
        """Check the anchor count and depths of every ``near_boundary_rays``."""
        depths = np.asarray(depths, dtype=float).reshape(-1)
        if depths.size == 0 or not np.all(depths > 0):
            raise RangeError("depths must be strictly positive")
        if np.any(depths >= self.inradius()):
            raise RangeError(
                f"depths must stay below the inradius {self.inradius():.6g}"
            )
        if n_points < 1:
            raise RangeError("need at least one anchor")
        return depths

    def sample_interior(self, n, rng):
        """Rejection-sample n interior points."""
        lo, hi = self.bounding_box()
        out = np.empty((n, self.dim))
        got = 0
        tries = 0
        while got < n:
            tries += 1
            if tries > 10000:
                raise RangeError("interior sampling failed; domain too thin?")
            cand = rng.uniform(lo, hi, size=(max(2 * (n - got), 64), self.dim))
            d = self.signed_distance(cand)
            cand = cand[d > 0]
            take = min(n - got, cand.shape[0])
            out[got : got + take] = cand[:take]
            got += take
        return out


def _unit_rows(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _circle_points(n, radius, phase=0.0):
    th = phase + 2 * np.pi * np.arange(n) / n
    return radius * np.stack([np.cos(th), np.sin(th)], axis=-1)


def _fibonacci_sphere(n):
    # Deterministic, nearly uniform unit vectors on S^2.
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    th = golden * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)


class _Round(Domain):
    """Disk or ball of the given radius about the origin."""

    json_keys = ("radius",)

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValidationError(f"{self.kind} radius must be positive")
        self.radius = float(radius)

    def signed_distance(self, x):
        return self.radius - np.linalg.norm(np.asarray(x, float), axis=-1)

    def inradius(self):
        return self.radius

    def bounding_box(self):
        return -self.radius * np.ones(self.dim), self.radius * np.ones(self.dim)


class Disk2D(_Round):
    kind = "disk2d"
    dim = 2

    def _anchors(self, n, rng):
        anchors = _circle_points(n, self.radius)
        return anchors, -anchors / self.radius


class Ball3D(_Round):
    kind = "ball3d"
    dim = 3

    def _anchors(self, n, rng):
        dirs = _fibonacci_sphere(n)
        return self.radius * dirs, -dirs


class Annulus2D(Domain):
    kind = "annulus2d"
    json_keys = ("r_in", "r_out")
    dim = 2

    def __init__(self, r_in, r_out):
        if not (0 < r_in < r_out):
            raise ValidationError("annulus needs 0 < r_in < r_out")
        self.r_in = float(r_in)
        self.r_out = float(r_out)

    def signed_distance(self, x):
        r = np.linalg.norm(np.asarray(x, float), axis=-1)
        return np.minimum(r - self.r_in, self.r_out - r)

    def inradius(self):
        return 0.5 * (self.r_out - self.r_in)

    def bounding_box(self):
        r = self.r_out
        return -r * np.ones(2), r * np.ones(2)

    def _anchors(self, n, rng):
        # Split anchors between the two boundary circles.
        n_out = (n + 1) // 2
        n_in = n - n_out
        a_out = _circle_points(n_out, self.r_out)
        pieces = [(a_out, -a_out / self.r_out)]
        if n_in > 0:
            a_in = _circle_points(n_in, self.r_in, phase=np.pi / max(n_in, 1))
            pieces.append((a_in, a_in / self.r_in))
        anchors = np.concatenate([p[0] for p in pieces])
        inwards = np.concatenate([p[1] for p in pieces])
        return anchors, inwards


class SolidTorus3D(Domain):
    """Solid torus: distance a - sqrt((rho - R)^2 + z^2) to the boundary,
    measured from the center circle of major radius R in the xy-plane."""

    kind = "solid_torus3d"
    json_keys = ("major_radius", "minor_radius")
    dim = 3

    def __init__(self, major_radius, minor_radius):
        if not (0 < minor_radius < major_radius):
            raise ValidationError("solid torus needs 0 < minor_radius < major_radius")
        self.major_radius = float(major_radius)
        self.minor_radius = float(minor_radius)

    def _core_dist(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.linalg.norm(x[..., :2], axis=-1)
        return np.sqrt((rho - self.major_radius) ** 2 + x[..., 2] ** 2)

    def signed_distance(self, x):
        return self.minor_radius - self._core_dist(x)

    def inradius(self):
        return self.minor_radius

    def bounding_box(self):
        R, a = self.major_radius, self.minor_radius
        return (
            np.array([-(R + a), -(R + a), -a]),
            np.array([R + a, R + a, a]),
        )

    def _anchors(self, n, rng):
        # Near-square grid in the toroidal and poloidal angles.
        n_phi = max(int(round(math.sqrt(n * self.major_radius / self.minor_radius))), 1)
        n_psi = max(int(math.ceil(n / n_phi)), 1)
        phi, psi = np.meshgrid(2 * np.pi * np.arange(n_phi) / n_phi,
                               2 * np.pi * np.arange(n_psi) / n_psi, indexing="ij")
        e_rho = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
        out = np.cos(psi)[..., None] * e_rho + np.sin(psi)[..., None] * np.array([0.0, 0.0, 1.0])
        anchors = self.major_radius * e_rho + self.minor_radius * out
        return anchors.reshape(-1, 3)[:n], -out.reshape(-1, 3)[:n]


@dataclass
class AffineFunctional:
    """L(x) = normal . x + offset with |normal| = 1 (normalized on construction)."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(-1)
        ln = float(np.linalg.norm(n))
        if ln == 0.0:
            raise ValidationError("affine functional needs a nonzero normal")
        self.normal = n / ln
        self.offset = float(self.offset) / ln

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.normal + self.offset

    def to_json(self):
        return {"normal": self.normal.tolist(), "offset": self.offset}


class Polytope(Domain):
    """Bounded convex polytope { x : L_i(x) < 0 for all i }.

    The boundary distance is min_i |L_i(x)|, exact because the functionals are
    unit-normalized and the region is convex.

    The Chebyshev ball and the bounding box are computed in closed form by
    ``_vertices``, with no LP solver.  The center and inradius are the vertex
    (x, r) of largest r of { N x + off + r <= 0, |x_i| <= 1e6, 0 <= r <= 1e6 },
    and the bounding box spans the vertices of { N x + off <= 0, |x_i| <= 1e6 }
    (a bounded LP attains its optimum at a vertex).  The 1e6 rows keep both
    sets bounded, so an unbounded polytope shows as r >= 1e5 or, when it is
    thin across its unbounded direction, as a box coordinate of magnitude
    1e5 or more.  Enumerating the vertices of k constraint rows in n unknowns
    costs C(k, n) n-by-n solves: with f facets in d dimensions,
    C(f + 2d + 2, d + 1) for the ball (120 for a square, 1,001 for a cube)
    and C(f + 2d, d) for the box, so the method suits polytopes with a
    handful of facets.
    """

    kind = "polytope"
    json_keys = ("functionals",)

    def __init__(self, functionals):
        if len(functionals) < 2:
            raise ValidationError("polytope needs at least two facets")
        self.functionals = list(functionals)
        self.dim = self.functionals[0].normal.shape[0]
        for f in self.functionals:
            if f.normal.shape[0] != self.dim:
                raise ValidationError("all facet normals must share one dimension")
        self._N = np.array([f.normal for f in self.functionals])
        self._off = np.array([f.offset for f in self.functionals])
        self._chebyshev = self._solve_chebyshev()
        eye = np.eye(self.dim)
        z = _vertices(np.vstack([self._N, eye, -eye]),
                      np.concatenate([-self._off, np.full(2 * self.dim, 1e6)]))
        self._box = z.min(axis=0), z.max(axis=0)
        if np.max(np.abs(z)) >= 1e5:
            raise ValidationError("polytope appears unbounded")

    def _solve_chebyshev(self):
        # max r s.t. N x + off + r <= 0, plus a box on x and r to keep the set bounded.
        k, d = self._N.shape
        eye = np.eye(d + 1)
        A = np.vstack([np.hstack([self._N, np.ones((k, 1))]), eye[:d], -eye[:d], eye[d], -eye[d]])
        b = np.concatenate([-self._off, np.full(2 * d + 1, 1e6), [0.0]])
        z = _vertices(A, b)
        # No vertex: the set is empty.  A flat polytope's r is the rounding of
        # the vertex solves, about eps |off|.
        if len(z) == 0 or np.max(z[:, -1]) <= 1e-12 * (1.0 + np.max(np.abs(self._off))):
            raise ValidationError("polytope has empty interior")
        z = z[np.argmax(z[:, -1])]
        if z[-1] >= 1e5:
            raise ValidationError("polytope appears unbounded")
        return z[:-1].copy(), float(z[-1])

    def values(self, x):
        return np.asarray(x, dtype=float) @ self._N.T + self._off

    def signed_distance(self, x):
        return np.min(-self.values(x), axis=-1)

    def inradius(self):
        return self._chebyshev[1]

    def chebyshev_center(self):
        return self._chebyshev[0].copy()

    def bounding_box(self):
        lo, hi = self._box
        return lo.copy(), hi.copy()

    def _facet_anchor(self, i, x):
        # Project x onto facet i's hyperplane; valid if it stays in the closure.
        f = self.functionals[i]
        y = x - f.value(x) * f.normal
        vals = self.values(y)
        return y if np.all(vals <= 1e-10) else None

    def _anchors(self, n, rng):
        if rng is None:
            rng = np.random.default_rng(0)
        anchors, inwards = [], []
        center = self.chebyshev_center()
        max_check = 0.5 * self.inradius()

        def try_add(y, i):
            nvec = -self.functionals[i].normal
            probe = y + max_check * nvec
            # Accept only anchors whose inward ray realizes the depth exactly.
            d = self.signed_distance(probe)
            if d > 0 and abs(d - max_check) < 1e-9:
                anchors.append(y)
                inwards.append(nvec)
                return True
            return False

        # Deterministic mid-facet anchors first.
        for i in range(len(self.functionals)):
            y = self._facet_anchor(i, center)
            if y is not None:
                try_add(y, i)
            if len(anchors) == n:
                return np.array(anchors), np.array(inwards)
        tries = 0
        while len(anchors) < n:
            tries += 1
            if tries > 200 * n:
                raise RangeError("could not place the requested number of facet anchors")
            x = self.sample_interior(1, rng)[0]
            i = int(np.argmin(-self.values(x)))
            y = self._facet_anchor(i, x)
            if y is not None:
                try_add(y, i)
        return np.array(anchors), np.array(inwards)


def _vertices(A, b):
    """Vertices of { z : A z <= b }, one row per regular active set.

    For every choice of n = A.shape[1] rows whose square system is regular
    (|det| > 1e-12), solve it and keep the solution if it satisfies every
    row to 1e-10 of |b| + |A| |z|.  A vertex where more than n rows meet
    appears once per regular choice.  Cost: C(len(A), n) n-by-n solves,
    taken 16,384 at a time so that memory stays bounded.
    """
    n = A.shape[1]
    choices = itertools.combinations(range(len(A)), n)
    found = []
    while len(rows := np.array(list(itertools.islice(choices, 16384)), dtype=int).reshape(-1, n)):
        M, rhs = A[rows], b[rows]
        regular = np.abs(np.linalg.det(M)) > 1e-12
        z = np.linalg.solve(M[regular], rhs[regular][..., None])[..., 0]
        slack = 1e-10 * (np.abs(b) + np.abs(z) @ np.abs(A).T)
        found.append(z[np.all(z @ A.T - b <= slack, axis=1)])
    return np.concatenate(found)


class PuncturedSpace(Domain):
    """R^d with the origin removed; the boundary is the deleted point, D(x) = |x|."""

    kind = "punctured_space"
    json_keys = ("dim",)

    def __init__(self, dim=3):
        if dim < 2:
            raise ValidationError("punctured space needs dimension >= 2")
        self.dim = int(dim)

    def signed_distance(self, x):
        return np.linalg.norm(np.asarray(x, float), axis=-1)

    def inradius(self):
        return math.inf

    def bounding_box(self):
        raise DomainError("punctured space is unbounded")

    def _anchors(self, n, rng):
        # Anchors are unit directions along which samples approach the origin.
        if self.dim == 2:
            dirs = _circle_points(n, 1.0)
        elif self.dim == 3:
            dirs = _fibonacci_sphere(n)
        else:
            gen = rng if rng is not None else np.random.default_rng(0)
            dirs = _unit_rows(gen.normal(size=(n, self.dim)))
        return np.zeros((n, self.dim)), dirs

    def near_boundary_rays(self, n_points, depths, rng=None):
        """points[i, j] = depths[j] * u_i along the unit anchor directions u_i."""
        depths = self._ray_depths(n_points, depths)
        return depths[None, :, None] * self._anchors(int(n_points), rng)[1][:, None]

    def sample_interior(self, n, rng):
        pts = rng.uniform(-2.0, 2.0, size=(n, self.dim))
        bad = np.linalg.norm(pts, axis=-1) < 1e-3
        while np.any(bad):
            pts[bad] = rng.uniform(-2.0, 2.0, size=(int(np.sum(bad)), self.dim))
            bad = np.linalg.norm(pts, axis=-1) < 1e-3
        return pts


def axis_box(lo, hi):
    """Axis-aligned box as a Polytope (any dimension)."""
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValidationError("box needs lo < hi componentwise")
    d = lo.shape[0]
    fns = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        fns.append(AffineFunctional(normal=e, offset=-hi[i]))       # x_i < hi_i
        fns.append(AffineFunctional(normal=-e, offset=lo[i]))       # x_i > lo_i
    return Polytope(fns)


def polygon_from_vertices(vertices):
    """Convex polygon in the plane from counterclockwise vertices."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValidationError("need at least three planar vertices")
    centroid = v.mean(axis=0)
    fns = []
    for i in range(v.shape[0]):
        p, q = v[i], v[(i + 1) % v.shape[0]]
        edge = q - p
        normal = np.array([edge[1], -edge[0]])  # outward for ccw order
        if np.dot(normal, centroid - p) > 0:
            normal = -normal
        fns.append(AffineFunctional(normal=normal, offset=-float(np.dot(normal, p))))
    return Polytope(fns)


def rotated_unit_square():
    """The unit square rotated by the generic angle 0.35 about its center.

    Generic orientation keeps every facet normal's first component nonzero,
    which the polytope field construction requires.
    """
    c, s = math.cos(0.35), math.sin(0.35)
    rot = np.array([[c, -s], [s, c]])
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    center = np.array([0.5, 0.5])
    return polygon_from_vertices((corners - center) @ rot.T + center)


def lipschitz_check(dom: Domain):
    """Empirical Lipschitz ratio of D over 2000 sampled interior pairs (should be <= 1)."""
    rng = np.random.default_rng(0)
    a = dom.sample_interior(2000, rng)
    b = dom.sample_interior(2000, rng)
    da = dom.signed_distance(a)
    db = dom.signed_distance(b)
    sep = np.linalg.norm(a - b, axis=-1)
    ok = sep > 1e-12
    return float(np.max(np.abs(da[ok] - db[ok]) / sep[ok]))


def domain_from_json(obj) -> Domain:
    """Rebuild a domain from its JSON dict; rejects unknown kinds and keys."""
    functionals = lambda fs: [AffineFunctional(normal=f["normal"], offset=f["offset"]) for f in fs]
    return _decode(obj, (Disk2D, Annulus2D, Ball3D, SolidTorus3D, Polytope, PuncturedSpace),
                   "domain", {"functionals": functionals})
