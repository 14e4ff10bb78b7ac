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
class CriterionReport:
    kind: str  # near_boundary / singular_point
    verdict: str
    liminf_estimate: float
    eta_margin: float
    direction_oscillation: float
    direction_regular: bool
    theorem_basis: list
    samples: np.ndarray  # kept samples, anchor-major, largest depth first
    warnings: list
    excluded: int
    params: dict


def direction_regularity(directions):
    """Oscillation of the unit field direction along each ray.

    directions: (anchors, depths, d, d) unit-form matrices, each ray from the
    largest depth to the smallest, NaN where a direction is missing.  Returns
    (regular, max_oscillation, per_anchor): per-anchor oscillation is the max
    pairwise distance between a ray's present directions (0.0 below two), and
    regularity requires it below ``OSCILLATION_TOL`` and the step between
    consecutive present directions not to grow from the first to the last
    (within the factor ``TREND_SLACK`` and the absolute ``TREND_FLOOR`` that
    absorbs the finite-difference noise plateau).
    """
    dirs = np.asarray(directions, dtype=float)
    iu = np.triu_indices(dirs.shape[-1], k=1)
    entries = dirs[..., iu[0], iu[1]]  # (anchors, depths, upper-triangle entries)
    present = ~np.isnan(entries).any(axis=-1)
    dist = np.sqrt(np.sum((entries[:, :, None] - entries[:, None, :]) ** 2, axis=-1))
    dist = np.where(present[:, :, None] & present[:, None, :], dist, 0.0)
    per_anchor = dist.max(axis=(1, 2), initial=0.0)
    count = present.sum(axis=1)
    # Present depths first, in ray order: the first step joins positions 0 and
    # 1 of that order, the last step positions count-2 and count-1.
    order = np.argsort(~present, axis=1, kind="stable")
    at = np.stack([np.zeros_like(count), np.ones_like(count), count - 2, count - 1], axis=1)
    ends = np.take_along_axis(order, np.clip(at, 0, order.shape[1] - 1), axis=1)
    rows = np.arange(len(order))
    first = dist[rows, ends[:, 0], ends[:, 1]]
    last = dist[rows, ends[:, 2], ends[:, 3]]
    oscillates = (count >= 2) & (per_anchor >= OSCILLATION_TOL)
    grows = (count >= 3) & (last > TREND_SLACK * first + TREND_FLOOR)
    regular = not np.any(oscillates | grows)
    return regular, float(per_anchor.max(initial=0.0)), per_anchor.tolist()


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


def _collect_samples(field, dom, points, depths, warnings):
    """Evaluate the (anchors, depths, d) ray points at once.  Returns the kept
    samples as a structured array (fields anchor, depth, distance, norm_sp,
    margin and point), the (anchors, depths) margin table and the (anchors,
    depths, d, d) unit direction table, both NaN at an excluded sample (the
    directions also below DIRECTION_FLOOR), and the excluded count."""
    shape = points.shape[:2]
    n_depths = shape[1]
    points = points.reshape(-1, points.shape[-1])
    mats, singular = _field_matrices(field, dom, points)
    kept = np.ones(len(points), dtype=bool)
    for i, err in singular:
        warnings.append(f"anchor {i // n_depths} depth {depths[i % n_depths]:g}: "
                        f"sample excluded ({err})")
        kept[i] = False
    kept_mats = mats[kept]
    dist = np.asarray(dom.distance(points[kept]), dtype=float)
    nsp = norm_sp_batch(kept_mats)
    margin = nsp * dist * dist
    margins = np.full(len(points), np.nan)
    margins[kept] = margin
    directions = np.full(mats.shape, np.nan)
    directions[kept] = kept_mats / np.where(nsp < DIRECTION_FLOOR, np.nan, nsp)[:, None, None]
    anchor, depth = np.divmod(np.flatnonzero(kept), n_depths)
    columns = {"anchor": anchor, "depth": np.asarray(depths)[depth], "distance": dist,
               "norm_sp": nsp, "margin": margin, "point": points[kept]}
    samples = np.empty(len(anchor), dtype=[(k, v.dtype, v.shape[1:]) for k, v in columns.items()])
    for name, column in columns.items():
        samples[name] = column
    return samples, margins.reshape(shape), directions.reshape(shape + mats.shape[1:]), len(singular)


def _liminf_estimate(margins):
    """Min margin over the smallest realized depth per anchor.

    margins: (anchors, depths) with depths largest first, NaN where excluded.
    """
    present = ~np.isnan(margins)
    last = margins.shape[1] - 1 - np.argmax(present[:, ::-1], axis=1)
    deepest = margins[np.arange(len(margins)), last][present.any(axis=1)]
    if deepest.size == 0:
        raise ValidationError("every sample was excluded; nothing to estimate")
    return float(deepest.min())


def _decide(kind, dim, liminf, regular, eta0, warnings):
    basis = []
    if liminf >= 1.0 + eta0:
        if kind != "singular_point" and dim == 2:
            basis.append("planar margin bound (no direction condition in dimension 2)")
            return CONFINING_D2_PLANAR, basis
        if regular and kind == "singular_point":
            basis.append("isolated-singularity margin bound with stable direction")
            return CONFINING_SINGULAR_POINT, basis
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

    The depth ladder is sorted largest first, so the samples, the tables and
    the verdict do not depend on the order in which it was given.  Returns
    (samples, margin table, direction table, excluded count, warnings, params).
    """
    rng = np.random.default_rng(seed)
    depths = default_depths(dom) if depths is None else depths
    depths = sorted((float(d) for d in depths), reverse=True)
    points = dom.near_boundary_rays(n_anchors, depths, rng)
    warnings: list = []
    samples, margins, dirs, excluded = _collect_samples(field, dom, points, depths, warnings)
    params = {"n_anchors": int(n_anchors), "depths": depths, "seed": int(seed)}
    return samples, margins, dirs, excluded, warnings, params


def _criterion(kind, field, dom, n_anchors, depths, eta0, seed):
    samples, margins, dirs, excluded, warnings, params = _scan(
        field, dom, n_anchors, depths, seed)
    liminf = _liminf_estimate(margins)
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
    _, _, dirs, excluded, warnings, params = _scan(field, dom, n_anchors, depths, seed)
    regular, worst, per_anchor = direction_regularity(dirs)
    return {
        "regular": bool(regular),
        "max_oscillation": float(worst),
        "per_anchor": [float(v) for v in per_anchor],
        "excluded": int(excluded),
        "warnings": warnings,
        "params": params,
    }
