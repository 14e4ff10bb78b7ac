"""Near-boundary confinement criterion.

The scan estimates the margin c(x) = |B(x)|_sp D(x)^2 along inward rays from
boundary anchors (or along rays into an isolated singularity) and compares
its liminf against two thresholds:

    liminf >= 1 + eta0        confining (with a direction condition in d >= 3)
    liminf <  sqrt(3)/2 - eta0  below the threshold where blow-up gauges with
                                boundary deficiency exist
    otherwise                 inconclusive gap

In d >= 3 the confining verdict additionally requires the unit direction of B
to stabilize along each ray: the scan records the oscillation of B/|B|_sp
across depths and checks that it is small and contracting.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .domains import PuncturedSpace
from .errors import SingularityError, ValidationError
from .exterior import DIRECTION_FLOOR, norm_sp_batch

CONFINING_D2 = "CONFINING_D2"
CONFINING_D2_PLANAR = "CONFINING_D2_PLANAR"
CONFINING_SINGULAR_POINT = "CONFINING_SINGULAR_POINT"
BELOW_THRESHOLD = "BELOW_THRESHOLD"
INCONCLUSIVE_GAP = "INCONCLUSIVE_GAP"

SQRT3_2 = math.sqrt(3.0) / 2.0
DEFAULT_ETA0 = 0.05
DEFAULT_ANCHORS = 64
DEPTH_FRACTIONS = (1e-1, 1e-2, 1e-3, 1e-4)
OSCILLATION_TOL = 0.05
TREND_SLACK = 1.1
# Steps below this are treated as converged: finite-difference noise on a
# stable direction plateaus near 1e-4, well under this floor.
TREND_FLOOR = 1e-3


@dataclass
class MarginSample:
    anchor: int
    depth: float
    point: np.ndarray
    distance: float
    norm_sp: float
    margin: float
    direction: np.ndarray | None  # unit two-form entries, None below the floor

    def row(self):
        return {
            "anchor": self.anchor,
            "depth": self.depth,
            "distance": self.distance,
            "norm_sp": self.norm_sp,
            "margin": self.margin,
        }


@dataclass
class CriterionReport:
    kind: str  # near_boundary / singular_point
    verdict: str
    liminf_estimate: float
    eta_margin: float
    direction_oscillation: float
    direction_regular: bool
    theorem_basis: list
    samples: list
    warnings: list
    excluded: int
    params: dict

    def to_json(self):
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "liminf_estimate": self.liminf_estimate,
            "eta_margin": self.eta_margin,
            "direction_oscillation": self.direction_oscillation,
            "direction_regular": self.direction_regular,
            "theorem_basis": list(self.theorem_basis),
            "warnings": list(self.warnings),
            "excluded": self.excluded,
            "params": self.params,
            "samples": [
                dict(s.row(), point=[float(v) for v in s.point]) for s in self.samples
            ],
        }

    def to_csv(self):
        buf = io.StringIO()
        buf.write("anchor,depth,distance,norm_sp,margin,point\n")
        for s in self.samples:
            pt = ";".join("%.17g" % v for v in s.point)
            buf.write(
                "%d,%.17g,%.17g,%.17g,%.17g,%s\n"
                % (s.anchor, s.depth, s.distance, s.norm_sp, s.margin, pt)
            )
        return buf.getvalue()


def _direction_distance(a, b):
    d = a - b
    iu = np.triu_indices(d.shape[0], k=1)
    return float(np.sqrt(np.sum(d[iu] ** 2)))


def direction_regularity(directions_by_anchor, tol=OSCILLATION_TOL,
                         slack=TREND_SLACK, floor=TREND_FLOOR):
    """Oscillation of the unit field direction along each ray.

    directions_by_anchor: per anchor, the unit-form matrices ordered from the
    largest depth to the smallest.  Returns (regular, max_oscillation,
    per_anchor) where per-anchor oscillation is the max pairwise distance
    and regularity additionally requires the step sizes not to grow from the
    first depth pair to the last (within ``slack`` and an absolute ``floor``
    that absorbs the finite-difference noise plateau).
    """
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


def _field_matrices(field, dom, points, start=0):
    """Field matrices at stacked points (NaN at singular points) and the
    (index, SingularityError) of each singular point, in order.  A batch that
    raises is split in halves down to single points, so only the singular
    points are lost."""
    try:
        return np.asarray(field.field_matrix_batch(points, domain=dom), dtype=float), []
    except SingularityError as err:
        if len(points) == 1:
            d = points.shape[-1]
            return np.full((1, d, d), np.nan), [(start, err)]
    half = len(points) // 2
    head, head_bad = _field_matrices(field, dom, points[:half], start)
    tail, tail_bad = _field_matrices(field, dom, points[half:], start + half)
    return np.concatenate([head, tail]), head_bad + tail_bad


def _collect_samples(field, dom, rays, warnings):
    anchors = np.repeat(np.arange(len(rays)), [len(ray.depths) for ray in rays])
    depths = np.concatenate([ray.depths for ray in rays])
    points = np.concatenate([ray.points for ray in rays])
    mats, singular = _field_matrices(field, dom, points)
    kept = np.ones(len(points), dtype=bool)
    for i, err in singular:
        warnings.append(f"anchor {anchors[i]} depth {depths[i]:g}: sample excluded ({err})")
        kept[i] = False
    anchors, depths, points, mats = anchors[kept], depths[kept], points[kept], mats[kept]
    dist = np.asarray(dom.distance(points), dtype=float)
    nsp = norm_sp_batch(mats)
    margin = nsp * dist * dist
    unit = mats / np.where(nsp < DIRECTION_FLOOR, 1.0, nsp)[:, None, None]
    samples = [
        MarginSample(
            anchor=int(anchors[i]),
            depth=float(depths[i]),
            point=points[i],
            distance=float(dist[i]),
            norm_sp=float(nsp[i]),
            margin=float(margin[i]),
            direction=None if nsp[i] < DIRECTION_FLOOR else unit[i],
        )
        for i in range(len(points))
    ]
    directions_by_anchor = [[] for _ in rays]
    for s in samples:
        directions_by_anchor[s.anchor].append(s.direction)
    return samples, directions_by_anchor, len(singular)


def _liminf_estimate(samples):
    """Min margin over the smallest realized depth per anchor."""
    by_anchor = {}
    for s in samples:
        cur = by_anchor.get(s.anchor)
        if cur is None or s.depth < cur.depth:
            by_anchor[s.anchor] = s
    if not by_anchor:
        raise ValidationError("every sample was excluded; nothing to estimate")
    return min(s.margin for s in by_anchor.values())


def _decide(kind, dim, liminf, regular, eta0, warnings):
    basis = []
    if liminf >= 1.0 + eta0:
        if kind == "singular_point":
            if regular:
                basis.append("isolated-singularity margin bound with stable direction")
                return CONFINING_SINGULAR_POINT, basis
            warnings.append("margin clears the threshold but the direction oscillates")
            basis.append("margin sufficient, direction condition failed")
            return INCONCLUSIVE_GAP, basis
        if dim == 2:
            basis.append("planar margin bound (no direction condition in dimension 2)")
            return CONFINING_D2_PLANAR, basis
        if regular:
            basis.append("weighted margin bound with asymptotically constant direction")
            return CONFINING_D2, basis
        warnings.append("margin clears the threshold but the direction oscillates")
        basis.append("margin sufficient, direction condition failed")
        return INCONCLUSIVE_GAP, basis
    if liminf < SQRT3_2 - eta0:
        basis.append("margin below the limit-circle threshold sqrt(3)/2")
        return BELOW_THRESHOLD, basis
    basis.append("margin inside the gap [sqrt(3)/2, 1]")
    return INCONCLUSIVE_GAP, basis


def default_depths(dom):
    """Geometric depth ladder: fractions of the inradius, or absolute radii
    for a punctured space (whose inradius is infinite)."""
    inr = dom.inradius()
    scale = 1.0 if math.isinf(inr) else inr
    return [f * scale for f in DEPTH_FRACTIONS]


def _scan(field, dom, n_anchors, depths, seed):
    """Sample the field along seeded inward rays: the one scan core.

    Returns (samples, directions by anchor, excluded count, warnings, params).
    """
    rng = np.random.default_rng(seed)
    depths = list(depths) if depths is not None else default_depths(dom)
    rays = dom.near_boundary_rays(n_anchors, depths, rng)
    warnings: list = []
    samples, dirs, excluded = _collect_samples(field, dom, rays, warnings)
    params = {"n_anchors": int(n_anchors), "depths": [float(d) for d in depths],
              "seed": int(seed)}
    return samples, dirs, excluded, warnings, params


def _criterion(kind, field, dom, n_anchors, depths, eta0, seed):
    samples, dirs, excluded, warnings, params = _scan(field, dom, n_anchors, depths, seed)
    liminf = _liminf_estimate(samples)
    regular, osc, _ = direction_regularity(dirs)
    verdict, basis = _decide(kind, dom.dim, liminf, regular, eta0, warnings)
    return CriterionReport(
        kind=kind,
        verdict=verdict,
        liminf_estimate=liminf,
        eta_margin=liminf - 1.0,
        direction_oscillation=osc,
        direction_regular=regular,
        theorem_basis=basis,
        samples=samples,
        warnings=warnings,
        excluded=excluded,
        params=dict(params, eta0=float(eta0)),
    )


def scan_margin(field, dom=None, n_anchors=DEFAULT_ANCHORS, depths=None,
                eta0=DEFAULT_ETA0, seed=0):
    """Near-boundary margin scan; returns a CriterionReport with the verdict."""
    dom = dom if dom is not None else field.domain
    if dom is None:
        raise ValidationError("scan needs a domain (field carries none)")
    if isinstance(dom, PuncturedSpace):
        return singular_point_criterion(field, n_rays=n_anchors, depths=depths,
                                        eta0=eta0, seed=seed)
    return _criterion("near_boundary", field, dom, n_anchors, depths, eta0, seed)


def singular_point_criterion(field, n_rays=DEFAULT_ANCHORS, depths=None,
                             eta0=DEFAULT_ETA0, seed=0):
    """Margin scan along rays into an isolated field singularity.

    The domain is the punctured space; the distance weight is |x| and the
    direction condition is checked per ray as the depth shrinks.
    """
    return _criterion("singular_point", field, PuncturedSpace(field.dim), n_rays, depths,
                      eta0, seed)


def scan_directions(field, dom=None, n_anchors=DEFAULT_ANCHORS, depths=None,
                    seed=0):
    """Per-anchor oscillation of the unit field direction along inward rays.

    Returns a dict with the regularity flag, the worst oscillation, the
    per-anchor oscillation table, and any exclusion warnings.
    """
    dom = dom if dom is not None else getattr(field, "domain", None)
    if dom is None:
        raise ValidationError("direction scan needs a domain (field carries none)")
    if isinstance(dom, PuncturedSpace):
        dom = PuncturedSpace(field.dim)
    _, dirs, excluded, warnings, params = _scan(field, dom, n_anchors, depths, seed)
    regular, worst, per_anchor = direction_regularity(dirs)
    return {
        "regular": bool(regular),
        "max_oscillation": float(worst),
        "per_anchor": [float(v) for v in per_anchor],
        "excluded": int(excluded),
        "warnings": warnings,
        "params": params,
    }
