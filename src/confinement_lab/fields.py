"""Catalog of magnetic fields used by the confinement criteria.

Each field exposes a potential one-form A (coefficients against dx_1..dx_d,
broadcasting over leading axes) and the field two-form B = dA.  Fields with a
printed closed form (constant, disk counterexample, monopole, dipole) return
it exactly; the rest differentiate the potential by central differences with
a step that shrinks near the domain boundary.

The monopole has no global potential; it carries the standard two-patch
gauge, written in the singularity-free form

    A_north = (m/2) (x dy - y dx) / (r (r + z)),
    A_south = -(m/2) (x dy - y dx) / (r (r - z)),

singular only on the negative (resp. positive) z-axis.  Multipoles of degree
n are iterated derivatives of the charge-2 monopole in its center parameter,
computed by nested central differences with one Richardson extrapolation.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import exterior
from .domains import (Ball3D, Disk2D, JsonKind, Polytope, PuncturedSpace, SolidTorus3D, _decode,
                      domain_from_json)
from .errors import DomainError, SingularityError, SolverError, ValidationError
from .exterior import TwoForm, axial_matrices

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0
_DENOM_TINY = 1e-14


@dataclass
class Polynomial:
    """Multivariate polynomial sum_t c_t * prod_i x_i^{e_ti} with exact gradient."""

    terms: list  # of (coeff, exponent tuple)

    def __post_init__(self):
        cleaned = []
        dim = None
        for coeff, exps in self.terms:
            exps = tuple(int(e) for e in exps)
            if any(e < 0 for e in exps):
                raise ValidationError("polynomial exponents must be nonnegative")
            if dim is None:
                dim = len(exps)
            elif len(exps) != dim:
                raise ValidationError("all polynomial terms must share one dimension")
            cleaned.append((float(coeff), exps))
        if dim is None:
            raise ValidationError("polynomial needs at least one term")
        self.terms = cleaned
        self.dim = dim

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for coeff, exps in self.terms:
            term = np.full(x.shape[:-1], coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * x[..., i] ** e
            out = out + term
        return out

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for coeff, exps in self.terms:
            for i, e in enumerate(exps):
                if not e:
                    continue
                term = np.full(x.shape[:-1], coeff * e)
                for j, ej in enumerate(exps):
                    p = ej - 1 if j == i else ej
                    if p:
                        term = term * x[..., j] ** p
                out[..., i] += term
        return out

    def to_json(self):
        return {"terms": [[c, list(e)] for c, e in self.terms]}

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or set(obj) != {"terms"}:
            raise ValidationError("polynomial JSON must be {'terms': [[coeff, [exps]], ...]}")
        return Polynomial(terms=[(t[0], t[1]) for t in obj["terms"]])


# ---------------------------------------------------------------------------
# reference one-forms used by the toroidal / non-toroidal constructions


class AzimuthalOneForm(JsonKind):
    """(-y dx + x dy) / (x^2 + y^2): the angle form around the z-axis."""

    kind = "azimuthal"
    label = "azimuthal one-form"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        rho2 = x[..., 0] ** 2 + x[..., 1] ** 2
        if np.any(rho2 < _DENOM_TINY):
            raise SingularityError("azimuthal one-form evaluated on the z-axis")
        out = np.zeros_like(x)
        out[..., 0] = -x[..., 1] / rho2
        out[..., 1] = x[..., 0] / rho2
        return out


class RotationOneForm(JsonKind):
    """scale * (x dy - y dx): smooth everywhere, pullback to spheres vanishes at the poles."""

    kind = "rotation_z"
    json_keys = ("scale",)
    label = "rotation_z one-form"

    def __init__(self, scale=1.0):
        self.scale = float(scale)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = -self.scale * x[..., 1]
        out[..., 1] = self.scale * x[..., 0]
        return out


def one_form_from_json(obj):
    """Rebuild a reference one-form from its JSON dict (unknown kinds/keys rejected)."""
    return _decode(obj, (AzimuthalOneForm, RotationOneForm), "one-form", {})


# ---------------------------------------------------------------------------
# field catalog


class MagneticField(JsonKind):
    """Base class: a potential with an optional closed-form two-form."""

    kind = "abstract"
    dim = None
    domain = None

    def potential(self, x):
        raise NotImplementedError

    def field_matrix_batch(self, x, domain=None):
        """Closed-form (..., d, d) coefficients of dA, or vectorized central
        differences of the potential when no closed form is printed."""
        x = np.asarray(x, dtype=float)
        closed = self._closed_field(x)
        if closed is not None:
            return closed
        dom = domain if domain is not None else self.domain
        return exterior.central_difference_batch(self.potential, x, self.dim, domain=dom)

    def _closed_field(self, x):
        return None


class ConstantField(MagneticField):
    """Constant two-form B0 with the linear gauge a(x) = (1/2) B0^T x."""

    kind = "constant"
    json_keys = ("two_form",)
    label = "constant field"

    def __init__(self, two_form):
        b = two_form if isinstance(two_form, TwoForm) else TwoForm(two_form)
        self.two_form = b
        self.dim = b.dim

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x @ self.two_form.entries)

    def _closed_field(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.two_form.entries, x.shape[:-1] + (self.dim, self.dim)).copy()


class PolytopeField(MagneticField):
    """Blow-up field on a convex polytope: a_2(x) = -sum_i 1/(n_i1 L_i(x)).

    The sign is chosen so that b_12 = sum_i 1/L_i(x)^2 >= D(x)^-2 > 0.
    Requires every facet normal to have a nonzero first component; a generic
    isometry of the polytope always achieves this.
    """

    kind = "polytope_field"
    json_keys = ("domain",)
    label = "polytope field"

    def __init__(self, domain: Polytope):
        if not isinstance(domain, Polytope):
            raise ValidationError("polytope field needs a Polytope domain")
        n1 = np.array([f.normal[0] for f in domain.functionals])
        if np.any(np.abs(n1) < 1e-12):
            raise ValidationError(
                "polytope field needs n_i1 != 0 for every facet; rotate the polytope generically"
            )
        self.domain = domain
        self.dim = domain.dim
        self._n1 = n1

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        vals = self.domain.values(x)
        if np.any(np.abs(vals) < _DENOM_TINY):
            raise SingularityError("polytope potential evaluated on a facet hyperplane")
        out = np.zeros_like(x)
        out[..., 1] = -np.sum(1.0 / (self._n1 * vals), axis=-1)
        return out

    def exact_b12(self, x):
        """Closed-form b_12 = sum_i L_i^-2, used as a cross-check oracle."""
        vals = self.domain.values(x)
        return np.sum(1.0 / vals**2, axis=-1)


class ToroidalField(MagneticField):
    """A = A0 / D^alpha near the boundary of a tubular domain (alpha >= 1)."""

    kind = "toroidal"
    json_keys = ("alpha", "domain", "base_one_form")
    label = "toroidal field"

    def __init__(self, alpha, domain, base_one_form=None):
        if alpha < 1.0:
            raise ValidationError("toroidal field needs alpha >= 1")
        self.alpha = float(alpha)
        self.domain = domain
        self.dim = domain.dim
        self.base_one_form = base_one_form if base_one_form is not None else AzimuthalOneForm()

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        dist = self.domain.signed_distance(x)
        if not np.all(dist > 0):
            raise DomainError(f"{self.label} potential evaluated outside its domain")
        return self.base_one_form(x) / dist[..., None] ** self.alpha


class NonToroidalField(ToroidalField):
    """A = A0 / D^2 on a ball; A0 smooth, its boundary pullback has zeros."""

    kind = "nontoroidal"
    json_keys = ("domain", "base_one_form")
    label = "non-toroidal field"

    def __init__(self, domain: Ball3D, base_one_form=None):
        if not isinstance(domain, Ball3D):
            raise ValidationError("non-toroidal field is defined on a ball")
        super().__init__(2.0, domain,
                         base_one_form if base_one_form is not None else RotationOneForm(1.0))


class DiskCounterexampleField(MagneticField):
    """A = alpha (x dy - y dx)/(r - 1) on the unit disk, 0 < alpha < sqrt(3)/2.

    Closed form: B = alpha (r - 2)/(r - 1)^2 dx^dy, so the confinement margin
    |B| D^2 equals alpha (2 - r) exactly and tends to alpha at the boundary.
    """

    kind = "disk_counterexample"
    json_keys = ("alpha",)
    label = "disk counterexample"

    def __init__(self, alpha):
        if not (0.0 < alpha < SQRT3_OVER_2):
            raise ValidationError(
                f"disk counterexample needs 0 < alpha < sqrt(3)/2 = {SQRT3_OVER_2:.6f}"
            )
        self.alpha = float(alpha)
        self.dim = 2
        self.domain = Disk2D(1.0)

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        den = r - 1.0
        if np.any(np.abs(den) < _DENOM_TINY):
            raise SingularityError("disk counterexample potential evaluated at r = 1")
        out = np.empty_like(x)
        out[..., 0] = -self.alpha * x[..., 1] / den
        out[..., 1] = self.alpha * x[..., 0] / den
        return out

    def _closed_field(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        den = r - 1.0
        if np.any(np.abs(den) < _DENOM_TINY):
            raise SingularityError("disk counterexample field evaluated at r = 1")
        b = self.alpha * (r - 2.0) / den**2
        mats = np.zeros(x.shape[:-1] + (2, 2))
        mats[..., 0, 1] = b
        mats[..., 1, 0] = -b
        return mats

    def margin_exact(self, r):
        """|B| D^2 at radius r: alpha (2 - r)."""
        return self.alpha * (2.0 - np.asarray(r, dtype=float))


class MonopoleField(MagneticField):
    """Charge-m monopole on punctured 3-space; |B|_sp = (|m|/2) / |x|^2."""

    kind = "monopole"
    json_keys = ("charge",)

    def __init__(self, charge):
        if not isinstance(charge, (int, np.integer)) or isinstance(charge, bool):
            raise ValidationError("monopole charge must be an integer flux quantum")
        self.charge = int(charge)
        self.dim = 3
        self.domain = PuncturedSpace(3)

    def potential(self, x):
        """Gauge-patch potential: the north patch where z >= 0, the south patch
        below, so the Dirac string of the chosen patch is avoided."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if np.any(r < _DENOM_TINY):
            raise SingularityError("monopole potential evaluated at the origin")
        north = x[..., 2] >= 0.0
        # denominators r (r +/- z) vanish exactly on the patch's Dirac string
        den = np.where(north, r * (r + x[..., 2]), r * (r - x[..., 2]))
        if np.any(np.abs(den) < _DENOM_TINY * np.maximum(r * r, 1.0)):
            raise SingularityError("monopole potential evaluated on the patch's polar axis")
        g = 0.5 * self.charge * np.where(north, 1.0, -1.0) / den
        out = np.zeros_like(x)
        out[..., 0] = -g * x[..., 1]
        out[..., 1] = g * x[..., 0]
        return out

    def _closed_field(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if np.any(r < _DENOM_TINY):
            raise SingularityError("monopole field evaluated at the origin")
        v = (0.5 * self.charge) * x / r[..., None] ** 3
        return axial_matrices(v)

    def flux_through_sphere(self):
        """Total flux through any origin-centered sphere: 2 pi m exactly."""
        return 2.0 * math.pi * self.charge


class DipoleField(MagneticField):
    """Derivative of the charge-2 monopole along a unit direction V.

    Closed form (axial vector): w(x) = (3 (V.xhat) xhat - V)/|x|^3, with the
    global potential A = (V cross x)/|x|^3.  Homogeneous of degree -3 and
    nowhere vanishing, so |B|_sp |x|^2 blows up like 1/|x| at the origin.
    """

    kind = "dipole"
    json_keys = ("direction",)

    def __init__(self, direction):
        v = np.asarray(direction, dtype=float).reshape(3)
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            raise ValidationError("dipole direction must be nonzero")
        self.direction = v / nv
        self.dim = 3
        self.domain = PuncturedSpace(3)

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if np.any(r < _DENOM_TINY):
            raise SingularityError("dipole potential evaluated at the origin")
        return np.cross(np.broadcast_to(self.direction, x.shape), x) / r[..., None] ** 3

    def axial(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if np.any(r < _DENOM_TINY):
            raise SingularityError("dipole field evaluated at the origin")
        xhat = x / r[..., None]
        c = np.sum(xhat * self.direction, axis=-1)
        return (3.0 * c[..., None] * xhat - self.direction) / r[..., None] ** 3

    def _closed_field(self, x):
        return axial_matrices(self.axial(x))


def _unit_directions(directions):
    dirs = [np.asarray(v, dtype=float).reshape(3) for v in directions]
    if any(np.linalg.norm(v) < 1e-12 for v in dirs):
        raise ValidationError("multipole direction must be nonzero")
    return [v / np.linalg.norm(v) for v in dirs]


def _row_norms(pts):
    """Row norms sqrt(p . p) summed as float(np.linalg.norm(p)) sums; norm(axis=-1) is not."""
    return np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])


def _center_differences(fn, x, dirs, what):
    """P(d/dc)|_{c=0} fn(x - c) at points x (..., 3), one row per point: P is the
    product of derivatives along ``dirs``, by nested central differences with
    steps h = 1e-2 * |x| and h/2 and one Richardson extrapolation, which
    removes the leading O(h^2) error.  All 2 * 2^n stencil points of all rows
    go through ``fn`` in one call."""
    pts = np.asarray(x, dtype=float).reshape(-1, 3)
    h = 1e-2 * _row_norms(pts)
    if np.any(h == 0.0):
        raise SingularityError(f"multipole {what} evaluated at the origin")
    steps = np.stack([h, 0.5 * h])[:, :, None, None]  # (coarse | fine, point, stencil, axis)
    tree = np.broadcast_to(pts[:, None, :], (2, len(pts), 1, 3))
    for v in dirs:  # the last direction becomes the outermost half of the stencil axis
        tree = np.concatenate([tree - steps * v, tree + steps * v], axis=2)
    vals = np.asarray(fn(tree.reshape(-1, 3)))
    vals = vals.reshape(tree.shape[:-1] + vals.shape[1:])
    denom = (2.0 * steps).reshape((2, len(pts)) + (1,) * (vals.ndim - 2))
    for _ in dirs:
        half = vals.shape[2] // 2
        vals = (vals[:, :, :half] - vals[:, :, half:]) / denom
    return (4.0 * vals[1, :, 0] - vals[0, :, 0]) / 3.0


class MultipoleField(MagneticField):
    """Multipole of arbitrary degree; degree 0 is the charge-2 monopole,
    degree 1 matches the dipole closed form to O(h^2)."""

    kind = "multipole"
    json_keys = ("directions",)

    def __init__(self, directions):
        self.directions = _unit_directions(directions)
        self.degree = len(self.directions)
        self.dim = 3
        self.domain = PuncturedSpace(3)

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        if self.degree == 0:
            return MonopoleField(2).potential(x)
        out = _center_differences(DipoleField(self.directions[0]).potential, x,
                                  self.directions[1:], "potential")
        return out.reshape(x.shape)

    def field_matrix_batch(self, x, domain=None):
        # the unit directions are normalized once more: the recorded fields carry these bits
        x = np.asarray(x, dtype=float)
        mats = _center_differences(MonopoleField(2)._closed_field, x,
                                   _unit_directions(self.directions), "field")
        return mats.reshape(x.shape[:-1] + (3, 3))


class GaugeShiftField(MagneticField):
    """base potential plus the exact gradient of a polynomial: same field."""

    kind = "gauge_shift"
    json_keys = ("base", "polynomial")
    label = "gauge shift"

    def __init__(self, base: MagneticField, polynomial: Polynomial):
        if polynomial.dim != base.dim:
            raise ValidationError("gauge polynomial dimension must match the base field")
        self.base = base
        self.polynomial = polynomial
        self.dim = base.dim
        self.domain = base.domain

    def potential(self, x):
        return self.base.potential(x) + self.polynomial.gradient(x)

    def field_matrix_batch(self, x, domain=None):
        # Bit-identical to the base field: the gauge term never enters.
        return self.base.field_matrix_batch(x, domain=domain)


def field_from_json(obj) -> MagneticField:
    """Rebuild a catalog field from its JSON dict (unknown kinds/keys rejected)."""
    return _decode(
        obj,
        (ConstantField, PolytopeField, ToroidalField, NonToroidalField, DiskCounterexampleField,
         MonopoleField, DipoleField, MultipoleField, GaugeShiftField),
        "field",
        {"domain": domain_from_json, "base_one_form": one_form_from_json,
         "base": field_from_json, "polynomial": Polynomial.from_json},
    )


# ---------------------------------------------------------------------------
# boundary one-form analysis (non-toroidal assumption check)


@dataclass
class OneFormZero:
    point: np.ndarray
    derivative_norm_sp: float


@dataclass
class OneFormBoundaryReport:
    zeros: list  # of OneFormZero
    assumption_satisfied: bool  # |d omega|_sp > 1 at every zero
    max_tangential_norm: float


def _lattice(resolution):
    """(long, short) side of the angular coarse grid."""
    return max(resolution, 16), max(resolution // 2, 8)


def _quads(idx):
    """Quads (i, j) -> (i+1, j) -> (i+1, j+1) -> (i, j+1) of an index lattice,
    periodic in both axes, in row-major order, shape (n_i * n_j, 4)."""
    down = np.roll(idx, -1, axis=0)
    quads = np.stack([idx, down, np.roll(down, -1, axis=1), np.roll(idx, -1, axis=1)], axis=-1)
    return quads.reshape(-1, 4)


class _SphereSurface:
    euler_characteristic = 2

    def __init__(self, radius):
        self.radius = float(radius)

    def grid(self, resolution):
        n_ph, n_th = _lattice(resolution)
        th = (np.arange(n_th) + 0.5) * np.pi / n_th
        ph = 2 * np.pi * np.arange(n_ph) / n_ph
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        pts = self.radius * np.stack(
            [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
        )
        # include the poles, which the open grid misses
        poles = self.radius * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        return np.concatenate([pts.reshape(-1, 3), poles])

    def cells(self, resolution):
        """Grid cells as groups (loops, centres).  A loop lists grid indices
        counterclockwise about the outward normal (theta-hat x phi-hat): the
        theta x phi quads, then the first and last theta rows, which ring the
        north and south poles."""
        n_ph, n_th = _lattice(resolution)
        idx = np.arange(n_th * n_ph).reshape(n_th, n_ph)
        quads, pts = _quads(idx)[:-n_ph], self.grid(resolution)
        return [(quads, self.project(pts[quads].mean(axis=1))),
                (np.stack([idx[0], idx[-1, ::-1]]), pts[-2:])]

    def normal(self, p):
        return p / np.linalg.norm(p, axis=-1, keepdims=True)

    def project(self, p):
        return self.radius * self.normal(p)


class _TorusSurface:
    euler_characteristic = 0

    def __init__(self, major_radius, minor_radius):
        self.major = float(major_radius)
        self.minor = float(minor_radius)

    def grid(self, resolution):
        n_phi, n_psi = _lattice(resolution)
        phi = 2 * np.pi * np.arange(n_phi) / n_phi
        psi = 2 * np.pi * np.arange(n_psi) / n_psi
        PHI, PSI = np.meshgrid(phi, psi, indexing="ij")
        rho = self.major + self.minor * np.cos(PSI)
        pts = np.stack([rho * np.cos(PHI), rho * np.sin(PHI), self.minor * np.sin(PSI)], axis=-1)
        return pts.reshape(-1, 3)

    def cells(self, resolution):
        """The phi x psi quads of the grid, counterclockwise about the outward
        normal (phi-hat x psi-hat), with their centres."""
        n_phi, n_psi = _lattice(resolution)
        quads = _quads(np.arange(n_phi * n_psi).reshape(n_phi, n_psi))
        return [(quads, self.project(self.grid(resolution)[quads].mean(axis=1)))]

    def _core_point(self, p):
        """Nearest point of the core circle to p, shape (..., 3)."""
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        return self.major * np.stack([p[..., 0] / rho, p[..., 1] / rho, np.zeros_like(rho)], -1)

    def normal(self, p):
        v = p - self._core_point(p)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def project(self, p):
        return self._core_point(p) + self.minor * self.normal(p)


def _tangent_frame(normal):
    n = normal / np.linalg.norm(normal)
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


def _tangential_part(a0, surface, p):
    """Component of the one-form a0 tangent to the surface at points p, shape (..., 3)."""
    a = np.asarray(a0(p), dtype=float)
    n = surface.normal(p)
    return a - np.sum(a * n, axis=-1, keepdims=True) * n


def _turns(t, normals, tails, heads):
    """Turn of the tangential field t along grid edges tail -> head: the angle
    atan2(n . (t_lo x t_hi), t_lo . t_hi) about the edge's mean normal n,
    from its lower grid index to its higher, negated in the other direction,
    so the two cells of an edge see exactly opposite turns."""
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    n = normals[lo] + normals[hi]
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    turn = np.arctan2(np.sum(n * np.cross(t[lo], t[hi]), axis=-1), np.sum(t[lo] * t[hi], axis=-1))
    return np.where(tails < heads, turn, -turn)


class _ChartGaussNewton:
    """Residual F(u) = (e1.t, e2.t) of a boundary chart and its Jacobian.

    t is the tangential part of the one-form a0 at chart(u), the surface
    point nearest p0 + u[0] e1 + u[1] e2, and (e1, e2) the chart frame at
    p0.  J is a forward difference; ``minimize`` drives F to zero.
    """

    step = 1e-7

    def __init__(self, a0, surface, p0, frame):
        self.a0 = a0
        self.surface = surface
        self.p0 = p0
        self.frame = np.array(frame)

    def chart(self, u):
        e1, e2 = self.frame
        return self.surface.project(self.p0 + u[0] * e1 + u[1] * e2)

    def residual(self, u):
        return self.frame @ _tangential_part(self.a0, self.surface, self.chart(u))

    def terms(self, u):
        f = self.residual(u)
        cols = [(self.residual(u + d) - f) / self.step for d in self.step * np.eye(2)]
        return f, np.column_stack(cols)


def minimize(gn, x0, radius):
    """Gauss-Newton on the chart residual F of gn from x0: each step solves
    J s = -F, is capped at length radius and halved while |F| does not fall.
    Stops when F is exactly 0, when J is singular, when no halving longer
    than 1e-12 radius lowers |F|, or after 100 evaluations of F and J."""
    x, (f, jac), nfev = x0, gn.terms(x0), 1
    while f.any() and nfev < 100:
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        step *= min(1.0, radius / np.linalg.norm(step))
        while np.linalg.norm(step) > 1e-12 * radius and nfev < 100:
            (f_new, jac_new), nfev = gn.terms(x + step), nfev + 1
            if f_new @ f_new < f @ f:
                break
            step = step / 2
        else:  # no halving lowered |F|
            break
        x, f, jac = x + step, f_new, jac_new
    return SimpleNamespace(x=x, jac=jac, nfev=nfev)


def _surface_for_domain(domain):
    if isinstance(domain, Ball3D):
        return _SphereSurface(domain.radius)
    if isinstance(domain, SolidTorus3D):
        return _TorusSurface(domain.major_radius, domain.minor_radius)
    raise ValidationError("boundary one-form analysis supports ball3d and solid_torus3d domains")


def boundary_one_form_analysis(field, resolution=48):
    """Zeros of the boundary pullback omega of a field's reference one-form A0,
    and the assumption |d omega|_sp > 1 at each (vacuously true without zeros).

    The tangential part of A0 is evaluated once on the angular grid of the
    boundary sphere or torus.  Its winding number around a grid cell is the
    Poincare-Hopf index of the zeros inside.  The indices must sum to the Euler
    characteristic (2 or 0), which guards each cell's rounding (a zero on a grid
    point breaks it), not completeness: a +1/-1 pair or an index-0 zero in one
    cell adds nothing and is not found.  Each cell of nonzero index, in grid
    order, is refined once by Gauss-Newton (see minimize) from its
    centre, and must end within one cell diameter on a zero (|t| at most 1e-8
    of the largest grid norm) of its index; no two cells may end on one zero.
    Any failed check raises SolverError.
    """
    if not hasattr(field, "base_one_form"):
        raise ValidationError("field must carry a base one-form (toroidal / nontoroidal kinds)")
    a0 = field.base_one_form
    surface = _surface_for_domain(field.domain)
    pts = surface.grid(resolution)
    normals = surface.normal(pts)
    t = _tangential_part(a0, surface, pts)
    scale = max(float(np.max(np.linalg.norm(t, axis=-1))), 1e-30)

    index, centres, diameters = [], [], []
    for loops, group_centres in surface.cells(resolution):
        turns = _turns(t, normals, loops, np.roll(loops, -1, axis=1))
        index.append(np.rint(turns.sum(axis=1) / (2.0 * np.pi)).astype(int))
        centres.append(group_centres)
        reach = np.linalg.norm(pts[loops] - group_centres[:, None], axis=-1)
        diameters.append(2.0 * np.max(reach, axis=1))
    index, centres, diameters = (np.concatenate(a) for a in (index, centres, diameters))
    if index.sum() != surface.euler_characteristic:
        raise SolverError(f"boundary zero indices sum to {index.sum()}, not the Euler "
                          f"characteristic {surface.euler_characteristic}: is a zero on the grid?")
    points = []
    for cell in np.flatnonzero(index):
        p0 = centres[cell]
        gn = _ChartGaussNewton(a0, surface, p0, _tangent_frame(surface.normal(p0)))
        res = minimize(gn, np.zeros(2), diameters[cell])
        points.append(gn.chart(res.x))
        residual = float(np.linalg.norm(_tangential_part(a0, surface, points[-1])))
        found = int(np.sign(np.linalg.det(res.jac)))
        moved = float(np.linalg.norm(points[-1] - p0))
        if residual > 1e-8 * scale or found != index[cell] or moved > diameters[cell]:
            raise SolverError(
                f"refining a cell of index {index[cell]} from {p0.tolist()} ended at "
                f"{points[-1].tolist()}: |t| = {residual:.3e} (limit {1e-8 * scale:.3e}), "
                f"index {found}, {moved:.3e} from the centre (diameter {diameters[cell]:.3e})")
    points = np.reshape(points, (-1, 3))
    i, j = np.triu_indices(len(points), k=1)
    twice = np.linalg.norm(points[i] - points[j], axis=-1) <= 1e-6 * np.max(np.abs(pts))
    if np.any(twice):
        raise SolverError(f"two cells of nonzero index refined to one zero at "
                          f"{points[i[twice][0]].tolist()}: are two zeros close to a grid edge?")
    dmats = exterior.central_difference_batch(a0, points, 3)
    zeros = []
    for q, dmat in zip(points, dmats):
        e1, e2 = _tangent_frame(surface.normal(q))
        zeros.append(OneFormZero(point=q, derivative_norm_sp=abs(float(e1 @ dmat @ e2))))
    ok = all(z.derivative_norm_sp > 1.0 for z in zeros)
    return OneFormBoundaryReport(zeros=zeros, assumption_satisfied=ok, max_tangential_norm=scale)
