"""Half-line reductions and Weyl endpoint classification.

Separating an angular mode turns the two model operators into half-line
Schrodinger operators -u'' + q(r) u.  Near a singular endpoint q behaves like
c / dist^2, and the endpoint type follows from the indicial roots

    s_pm = (1 +- sqrt(1 + 4 c)) / 2:

both solutions x^s are square-integrable near the endpoint iff c < 3/4
(limit circle), exactly one iff c >= 3/4 (limit point).  A regular endpoint
has c = 0 and is limit circle.

Two classifiers are provided: ``classify_indicial`` reads c off the potential
by extrapolating dist^2 q(dist), and ``classify_by_solving`` integrates the
equation at a nonreal spectral parameter in the log coordinate t = ln(dist),

    w''(t) - w'(t) - x^2 (q - lambda) w = 0,   x = e^t,

whose solutions grow like e^{s t}; the dominant measured exponent is s_minus,
and the endpoint is limit point iff s_minus <= -1/2 (then x^{s_minus} just
fails to be square integrable).  It is solved by Chebyshev collocation at two
node counts, on intervals between the sample points halved until the two agree.
"""

import cmath
import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .errors import RangeError, SingularityError, SolverError, ValidationError
from .spherical import ground_level

LIMIT_CIRCLE = "LimitCircle"
LIMIT_POINT = "LimitPoint"
INCONCLUSIVE = "Inconclusive"

# |c - 3/4| below this is treated as on the boundary by the indicial method.
INDICIAL_BAND = 1e-6
# |exponent + 1/2| below this is inconclusive for the solver method, and two
# fitted exponents further apart than this give no c.
EXPONENT_BAND = 0.02
CRITICAL_COUPLING = 0.75
# Spectral parameter of the solver method: nonreal, so the Weyl alternative applies.
SPECTRAL_PARAMETER = 1j
# Chebyshev-Lobatto node counts of the solver method, the largest relative gap of
# their solutions that counts as resolved, and the halvings of an unresolved interval.
NODE_COUNTS = (16, 24)
COLLOCATION_TOL = 1e-9
REFINEMENTS = 6
BISECTION_TOL = 1e-3


@dataclass
class RadialProblem:
    """Half-line operator -u'' + q(r) u on an interval.

    decisive_endpoints are the endpoints whose type decides self-adjointness;
    coordinate artifacts (the polar origin of a smooth disk) are classified on
    request but excluded from the verdict, with the reason recorded in
    ``provenance``.
    """

    q: Callable
    interval: tuple
    decisive_endpoints: tuple
    provenance: dict = dataclass_field(default_factory=dict)

    def length_scale(self) -> float:
        a, b = self.interval
        return 1.0 if math.isinf(b) else (b - a)


@dataclass
class EndpointClassification:
    endpoint: float
    kind: str  # LimitCircle / LimitPoint / Inconclusive
    c: Optional[float]
    s_minus: Optional[complex]
    s_plus: Optional[complex]
    method: str
    diagnostics: dict = dataclass_field(default_factory=dict)


@dataclass
class EsaVerdict:
    esa: Optional[bool]  # None when an endpoint came back inconclusive
    endpoint_reports: dict
    basis: str
    caveats: list


def indicial_roots(c):
    disc = 1.0 + 4.0 * c
    root = cmath.sqrt(disc)
    return (1.0 - root) / 2.0, (1.0 + root) / 2.0


# ---------------------------------------------------------------------------
# model reductions


def _inverse_square(c):
    """The potential c / r^2."""
    def q(r):
        r = np.asarray(r, dtype=float)
        return c / (r * r)
    return q


def reduce_disk_mode(alpha, mode):
    """Angular mode of the disk blow-up gauge alpha (x dy - y dx)/(r - 1).

    After u(r) = sqrt(r) v(r) the mode operator on (0, 1) is -v'' + q_m v with

        q_m(r) = (m^2 - 1/4)/r^2 + 2 m alpha r/(r - 1) + alpha^2 r^2/(r - 1)^2.

    Near r = 1 the coupling is c = alpha^2; near the polar origin it is
    m^2 - 1/4, a coordinate artifact excluded from the verdict.
    """
    if not alpha > 0:
        raise ValidationError("disk mode reduction needs alpha > 0")
    if not isinstance(mode, (int, np.integer)) or isinstance(mode, bool):
        raise ValidationError("angular mode must be an integer")
    alpha = float(alpha)
    m = int(mode)

    def q(r):
        r = np.asarray(r, dtype=float)
        den = r - 1.0
        return (
            (m * m - 0.25) / (r * r)
            + 2.0 * m * alpha * r / den
            + alpha**2 * (r * r) / (den * den)
        )

    return RadialProblem(
        q=q,
        interval=(0.0, 1.0),
        decisive_endpoints=(1.0,),
        provenance={
            "reduction": "disk_mode",
            "alpha": alpha,
            "mode": m,
            "substitution": "u(r) = sqrt(r) v(r); the polar area weight r dr becomes dr "
            "and contributes -1/(4 r^2)",
            "origin_endpoint": "polar coordinate artifact, excluded from the verdict",
        },
    )


def reduce_monopole(charge):
    """Radial part of the monopole over its lowest angular level.

    With u = v / r the operator on (0, infinity) is -v'' + (lambda_min / r^2) v,
    lambda_min = |m| / 2.  Both endpoints are genuine: the puncture at the
    origin and the infinite end.
    """
    lam = ground_level(charge)  # validates integrality
    return RadialProblem(
        q=_inverse_square(float(lam)),
        interval=(0.0, math.inf),
        decisive_endpoints=(0.0, math.inf),
        provenance={
            "reduction": "monopole_mode",
            "charge": int(charge),
            "angular_level": str(lam),
            "substitution": "u = v / r removes the first-order radial term in 3 dimensions",
        },
    )


# ---------------------------------------------------------------------------
# indicial classification


def _kind_from_c(c):
    if c < CRITICAL_COUPLING - INDICIAL_BAND:
        return LIMIT_CIRCLE
    if c > CRITICAL_COUPLING + INDICIAL_BAND:
        return LIMIT_POINT
    return INCONCLUSIVE


def _inward(problem, endpoint):
    """+1 at the left end of the problem's interval, -1 at the right end (the
    direction into the interval); RangeError at any other point."""
    a, b = problem.interval
    if not (endpoint == a or endpoint == b):
        raise RangeError(f"endpoint {endpoint} is not an endpoint of {problem.interval}")
    return 1.0 if endpoint == a else -1.0


def classify_indicial(problem: RadialProblem, endpoint):
    """Endpoint type from the extrapolated coupling c = lim dist^2 q(dist).

    Probes dist = 10^-k (scaled by the interval length) for k = 2..8 and
    fits dist^2 q linearly in dist over the smallest probes; raises on a
    potential more singular than dist^-2 with a negative coefficient, which
    the indicial framework does not cover.
    """
    sign = _inward(problem, endpoint)
    if math.isinf(endpoint):
        r = 10.0 ** np.arange(1, 8)
        qv = np.asarray(problem.q(r), dtype=float)
        if np.any(qv < -1e8):
            raise SingularityError("potential unbounded below toward infinity")
        c_inf = float(r[-1] ** 2 * qv[-1])
        s_m, s_p = indicial_roots(c_inf)
        return EndpointClassification(
            endpoint=endpoint,
            kind=LIMIT_POINT,
            c=c_inf,
            s_minus=s_m,
            s_plus=s_p,
            method="indicial",
            diagnostics={"reason": "infinite endpoint with potential bounded below"},
        )
    scale = problem.length_scale()
    ks = np.arange(2, 9)
    dists = scale * 10.0 ** (-ks.astype(float))
    rs = endpoint + sign * dists
    y = dists**2 * np.asarray(problem.q(rs), dtype=float)

    # divergence of dist^2 q means a singularity stronger than dist^-2
    tail = np.abs(y[-4:])
    if np.abs(y[-1]) > 50.0 * max(1.0, np.abs(y[0])) and np.all(np.diff(tail) > 0):
        if y[-1] > 0:
            return EndpointClassification(
                endpoint=endpoint,
                kind=LIMIT_POINT,
                c=math.inf,
                s_minus=None,
                s_plus=None,
                method="indicial",
                diagnostics={"reason": "coupling diverges to +infinity"},
            )
        raise SingularityError(
            "unsupported singularity: dist^2 q diverges to -infinity at the endpoint"
        )

    # fine fit on the smallest four probes pins the intercept
    fine = slice(-4, None)
    coef_fine = np.polyfit(dists[fine], y[fine], 1)
    coef_all = np.polyfit(dists, y, 1)
    c = float(coef_fine[1])
    s_m, s_p = indicial_roots(c)
    return EndpointClassification(
        endpoint=endpoint,
        kind=_kind_from_c(c),
        c=c,
        s_minus=s_m,
        s_plus=s_p,
        method="indicial",
        diagnostics={
            "c_fine": c,
            "c_coarse": float(coef_all[1]),
            "probe_decades": (int(ks[0]), int(ks[-1])),
            "regular": bool(np.max(np.abs(problem.q(rs))) < 1e3),
        },
    )


# ---------------------------------------------------------------------------
# solver-based classification


def _coefficient(problem, endpoint):
    """g of w'' = drift w' + g(t) w for ``problem`` at ``endpoint``, for an
    array of t: q - lambda at r = t toward infinity, x^2 (q - lambda) at dist
    x = e^t from a finite endpoint."""
    sign = _inward(problem, endpoint)
    if math.isinf(endpoint):
        return lambda t: problem.q(t) - SPECTRAL_PARAMETER

    def g(t):
        x = np.exp(t)
        return x * x * (problem.q(endpoint + sign * x) - SPECTRAL_PARAMETER)
    return g


@functools.cache
def _lobatto(n):
    """The n Chebyshev-Lobatto nodes on [-1, 1], ascending, and the matrix
    that differentiates the polynomial through them (barycentric form)."""
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] /= 2.0
    d = np.outer(1.0 / w, w) / (x[:, None] - x + np.eye(n))
    return x, d - np.diag(d.sum(axis=1))


@functools.cache
def _resample():
    """Interpolation from the coarse to the fine nodes of ``NODE_COUNTS``."""
    (coarse, _), (fine, _) = map(_lobatto, NODE_COUNTS)
    vander = np.polynomial.chebyshev.chebvander
    return vander(fine, len(coarse) - 1) @ np.linalg.inv(vander(coarse, len(coarse) - 1))


def _collocate(g, starts, ends, drift, n):
    """(intervals, 2, n, 2) values of y = (w, w') at the n Chebyshev-Lobatto
    nodes of each interval [starts[i], ends[i]] for w'' = drift w' + g w, with
    y = (1, 0) and y = (0, 1) at its start: w' = D w and D w' = g w + drift w'
    at every node but the start, whose rows hold the initial conditions (with
    D's start row zeroed, w' = D w + w'(start) e_0 leaves n equations in w)."""
    x, d = _lobatto(n)
    half = 0.5 * (ends - starts)[:, None]
    t = starts[:, None] + half * (x + 1.0)
    gv = g(t)
    bad = ~np.isfinite(gv)
    if bad.any():
        raise SingularityError(f"coefficient is not finite at t = {float(t[bad][0])!r}")
    d = d / half[:, :, None]
    d[:, 0] = 0.0
    a = d @ d - drift * d - gv[:, :, None] * np.eye(n)
    a[:, 0, 0] = 1.0
    rhs = np.zeros((len(t), n, 2))
    rhs[:, 0, 0] = 1.0
    rhs[:, :, 1] = -d[:, :, 0]
    w = np.linalg.solve(a, rhs)
    dw = d @ w
    dw[:, 0, 1] = 1.0
    return np.stack([w, dw], axis=1)


def _transfers(g, starts, ends, drift, depth):
    """(intervals, 2, 2) transfer matrices of y = (w, w') over [starts[i], ends[i]]
    at the fine ``NODE_COUNTS``; an interval the coarse count misses by more than
    ``COLLOCATION_TOL`` is halved, at most ``depth`` times (else SolverError)."""
    coarse, fine = (_collocate(g, starts, ends, drift, n) for n in NODE_COUNTS)
    steps = fine[:, :, -1]
    size = np.max(np.abs(fine), axis=(1, 2, 3))
    gaps = np.max(np.abs(_resample() @ coarse - fine), axis=(1, 2, 3)) / size
    bad = ~(gaps <= COLLOCATION_TOL)
    if bad.any():
        if not depth:
            raise SolverError(f"collocations at {NODE_COUNTS[0]} and {NODE_COUNTS[1]} "
                              f"nodes differ by {np.max(gaps[bad]):.1e}")
        mids = 0.5 * (starts[bad] + ends[bad])
        halves = _transfers(g, np.r_[starts[bad], mids], np.r_[mids, ends[bad]], drift,
                            depth - 1)
        steps[bad] = halves[len(mids):] @ halves[:len(mids)]
    return steps


def _from_exponents(endpoint, slopes, resids, windows):
    """Classification from the two fitted exponents (growth rates toward
    infinity) and their fit residuals."""
    if math.isinf(endpoint):
        kind = LIMIT_POINT if max(slopes) > EXPONENT_BAND else INCONCLUSIVE
        return EndpointClassification(
            endpoint=endpoint, kind=kind, c=None, s_minus=None, s_plus=None, method="solve",
            diagnostics={"fit_residuals": resids, "growth_rates": slopes},
        )
    s_min = min(slopes)
    diags = {"fit_residuals": resids, "windows": windows, "exponents": slopes}
    if s_min > -0.5 + EXPONENT_BAND:
        kind = LIMIT_CIRCLE
    elif s_min < -0.5 - EXPONENT_BAND:
        kind = LIMIT_POINT
    else:
        kind = INCONCLUSIVE
    c_est = s_m = s_p = None
    if max(slopes) - s_min <= EXPONENT_BAND:  # else |w| oscillates: complex roots
        c_est = s_min * s_min - s_min  # inverts s_minus = (1 - sqrt(1 + 4c))/2
        s_m, s_p = indicial_roots(c_est)
    return EndpointClassification(
        endpoint=endpoint, kind=kind, c=c_est, s_minus=s_m, s_plus=s_p,
        method="solve", diagnostics=diags,
    )


def classify_by_solving(problem: RadialProblem, endpoint):
    """Endpoint type of ``problem`` from the growth exponent of its solutions
    at the spectral parameter lambda = i (``SPECTRAL_PARAMETER``).

    Finite endpoints are integrated in the log coordinate t = ln(dist) from
    dist = 0.1 (scaled by the interval length), where
    w'' = w' + x^2 (q - lambda) w, and sampled at dist halved 4..14 times;
    the smaller of the two exponents fitted over the last 5 samples
    estimates s_minus, and the endpoint is limit point iff it is
    <= -1/2 - ``EXPONENT_BAND``, limit circle iff >= -1/2 + ``EXPONENT_BAND``,
    else inconclusive.  Infinite endpoints are integrated in r directly,
    w'' = (q - lambda) w, where a nonreal lambda forces exponential growth of
    the dominant solution (limit point).

    Below c = -1/4 the indicial roots are complex, |w| oscillates, and the
    fitted exponents are no s_minus: the kind (limit circle) is right, and
    c, s_minus and s_plus are None when the two exponents differ by more
    than ``EXPONENT_BAND`` (c = -100: 0.634 and 0.060).  That test is not
    exact (measured on c/r^2 in steps of 0.002): 19 of 875 couplings in
    [-2, -1/4) still report a c (c = -0.338 reports -0.070, its exponents
    0.006 apart), and the real roots of c in [-0.25, -0.244] give None.
    """
    scale = problem.length_scale()
    if math.isinf(endpoint):
        grid, samples = np.linspace(10.0 * scale, 10.0 * scale + 30.0, 16), 16
        drift, fit = 0.0, 8
    else:
        grid, samples = math.log(0.1 * scale) - math.log(2.0) * np.arange(15), 11
        drift, fit = 1.0, 5
    try:  # |w| of the solutions with (w, w') = (1, 0) and (0, 1) at grid[0]
        with np.errstate(all="ignore"):
            ys = [np.eye(2)]
            for step in _transfers(_coefficient(problem, endpoint), grid[:-1], grid[1:], drift,
                                   REFINEMENTS):
                ys.append(step @ ys[-1])
            mags = np.abs(np.array(ys)[:, 0])
        if not np.all(np.isfinite(mags)):
            raise SolverError("|w| is not finite")
    except SolverError as err:
        return EndpointClassification(
            endpoint=endpoint, kind=INCONCLUSIVE, c=None, s_minus=None, s_plus=None,
            method="solve", diagnostics={"reason": f"integration failed: {err}"})
    # both exponents, as the columns of one fit
    logs = np.log(np.maximum(mags[-fit:], 1e-300))
    coef = np.polyfit(grid[-fit:], logs, 1)
    resid = np.max(np.abs(logs - np.polyval(coef, grid[-fit:, None])), axis=0)
    return _from_exponents(endpoint, coef[0].tolist(), resid.tolist(), samples)


def solver_selftest():
    """Max |measured - exact| growth exponent over the pure c/x^2 potentials
    c = 0, 0.3, 0.74, 0.76 and 2, on both sides of the transition c = 3/4."""
    worst = 0.0
    for c in (0.0, 0.3, 0.74, 0.76, 2.0):
        problem = RadialProblem(q=_inverse_square(c), interval=(0.0, 1.0),
                                decisive_endpoints=(0.0,), provenance={"reduction": "selftest"})
        exponents = classify_by_solving(problem, 0.0).diagnostics["exponents"]
        worst = max(worst, abs(min(exponents) - (1.0 - math.sqrt(1.0 + 4.0 * c)) / 2.0))
    return worst


# ---------------------------------------------------------------------------
# verdicts, sweeps, bisection


def _classifier(method):
    """The (problem, endpoint) classifier of ``method``, read from the module
    at each call, so that a wrapped module attribute is the one called."""
    if method == "indicial":
        return classify_indicial
    if method == "solve":
        return classify_by_solving
    raise ValidationError("method must be 'indicial' or 'solve'")


def esa_verdict_radial(problem, method="indicial"):
    """EsaVerdict of ``problem``: essential self-adjointness from its decisive
    endpoints, ESA iff every one is limit point.  Coordinate-artifact
    endpoints are ignored; a caveat records that a mode verdict transfers to
    the full operator through the mode decomposition."""
    classify = _classifier(method)
    reports = {ep: classify(problem, ep) for ep in problem.decisive_endpoints}
    kinds = [r.kind for r in reports.values()]
    if any(k == INCONCLUSIVE for k in kinds):
        esa = None
        basis = "at least one endpoint could not be classified"
    elif all(k == LIMIT_POINT for k in kinds):
        esa = True
        basis = "every decisive endpoint is limit point"
    else:
        esa = False
        lc = [ep for ep, r in reports.items() if r.kind == LIMIT_CIRCLE]
        basis = f"limit-circle endpoint(s) {lc} admit boundary conditions"
    caveats = []
    if problem.provenance.get("reduction") == "disk_mode":
        caveats.append(
            "single angular mode: the full-operator conclusion uses the mode decomposition"
        )
        if "origin_endpoint" in problem.provenance:
            caveats.append("polar origin excluded: " + problem.provenance["origin_endpoint"])
    return EsaVerdict(esa=esa, endpoint_reports=reports, basis=basis, caveats=caveats)


def sweep_alpha(alphas, mode=0, method="indicial"):
    """Rows (alpha, c, s_minus, s_plus, kind) at the boundary endpoint r = 1."""
    classify = _classifier(method)
    rows = []
    for alpha in map(float, alphas):
        cls = classify(reduce_disk_mode(alpha, mode), 1.0)
        rows.append({"alpha": alpha, "c": cls.c, "s_minus": cls.s_minus, "s_plus": cls.s_plus,
                     "kind": cls.kind})
    return rows


def threshold_bisection(lo=0.5, hi=1.2, mode=0, method="solve"):
    """Bisect the alpha at which the boundary endpoint flips limit circle ->
    limit point (exact transition alpha = sqrt(3)/2) down to a bracket of
    ``BISECTION_TOL``, at most 60 halvings.

    An inconclusive classification means the probe (a bracket end or a
    midpoint) landed inside the method's resolution band around the
    transition, so that probe is returned as the estimate; a probe the solver
    could not integrate raises SolverError.
    """
    classify = _classifier(method)

    def kind_at(a):
        cls = classify(reduce_disk_mode(a, mode), 1.0)
        if cls.kind == INCONCLUSIVE and "reason" in cls.diagnostics:
            raise SolverError(f"alpha = {a!r}: {cls.diagnostics['reason']}")
        return cls.kind

    k_lo, k_hi = kind_at(lo), kind_at(hi)
    if k_lo == k_hi:
        raise ValidationError(f"bracket [{lo}, {hi}] does not straddle the transition")
    if k_lo == INCONCLUSIVE:
        return lo
    if k_hi == INCONCLUSIVE:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hi - lo <= BISECTION_TOL:
            return mid
        k_mid = kind_at(mid)
        if k_mid == INCONCLUSIVE:
            return mid
        if k_mid == k_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
