"""Lattice magnetic Schrodinger operators with Peierls link phases.

The operator on a cell-centered grid of spacing h inside a bounded domain is

    (H u)(x) = (2d/h^2) u(x) - (1/h^2) sum_{edges x~y} u_{xy} u(y),

with the link phase u_{xy} = exp(-i h a_j(midpoint)) along axis j (midpoint
rule; optionally a 3-point Gauss rule on the edge).  Sites outside the domain
or closer to the boundary than the truncation depth are removed, which
imposes a Dirichlet condition.  H is Hermitian by construction, and for a
gauge shift by a polynomial of degree <= 2 the midpoint rule integrates the
gradient exactly, so the shifted operator is a unitary phase conjugation of
the original: identical spectrum to rounding.

For a constant planar field b the lowest eigenvalue approaches the continuum
Landau bottom |b| from below in the bulk, with leading deficit b^2 h^2 / 8,
while Dirichlet walls push it up; both effects are visible in the tests.
"""

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AssemblyError,
    DomainError,
    SingularityError,
    SolverError,
    ValidationError,
)
from .exterior import norm_sp_batch

RESIDUAL_RTOL = 1e-8
# Inverse-iteration steps before lowest_pairs gives up.
MAX_ITERATIONS = 600
CALIBRATION_STRENGTHS = (1.0, 3.0)
GAUSS3_NODES = (0.5 - math.sqrt(3.0 / 5.0) / 2.0, 0.5, 0.5 + math.sqrt(3.0 / 5.0) / 2.0)
GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


@dataclass
class Grid:
    sites: np.ndarray     # (N, d) positions
    coords: np.ndarray    # (N, d) integer lattice coordinates
    h: float
    domain: object

    @property
    def n_sites(self):
        return self.sites.shape[0]

    @property
    def dim(self):
        return self.sites.shape[1]


def build_grid(dom, h, delta=0.0):
    """Cell-centered grid (h/2, ..., h/2) + h Z^d, keeping sites x with D(x) > delta.

    delta = 0 keeps every strictly interior site.  A positive truncation
    depth requires h < delta / 2 so the retained band is at least two cells
    wide everywhere.
    """
    if not h > 0:
        raise ValidationError("grid spacing h must be positive")
    if delta < 0:
        raise ValidationError("truncation depth must be nonnegative")
    if delta > 0 and not h < delta / 2:
        raise ValidationError(f"h = {h} must be < delta/2 = {delta / 2} when truncating")
    try:
        lo, hi = dom.bounding_box()
    except DomainError as err:
        raise ValidationError(f"lattice needs a bounded domain: {err}") from err
    d = len(lo)
    offset = h / 2.0
    k_lo = np.ceil((lo - offset) / h).astype(int)
    k_hi = np.floor((hi - offset) / h).astype(int)
    axes = [np.arange(k_lo[i], k_hi[i] + 1) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    sites = offset + h * coords
    keep = dom.signed_distance(sites) > delta
    if not np.any(keep):
        raise ValidationError("no lattice sites survive inside the domain")
    return Grid(sites=sites[keep], coords=coords[keep], h=float(h), domain=dom)


def _wall_fractions(dom, sites, dirs, h, delta):
    """Fraction theta of each outgoing arm that lies inside the retained
    region.  The wall sits where the boundary distance drops to delta; the
    fraction is located by bisection on the signed distance, which changes
    sign on (0, h] because the site is retained and the neighbor is not."""
    lo = np.zeros(len(sites))
    hi = np.full(len(sites), h)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g = dom.signed_distance(sites + mid[:, None] * dirs) - delta
        pos = g > 0.0
        lo[pos] = mid[pos]
        hi[~pos] = mid[~pos]
    theta = hi / h
    return np.clip(theta, 1e-9, 1.0)


def _edge_phase_exponents(field, starts, axis, h, quadrature):
    """Integral of a_axis along each edge start -> start + h e_axis."""
    e = np.zeros(starts.shape[1])
    e[axis] = 1.0
    if quadrature == "midpoint":
        mids = starts + (h / 2.0) * e
        return h * field.potential(mids)[..., axis]
    if quadrature == "gauss3":
        total = np.zeros(starts.shape[0])
        for node, weight in zip(GAUSS3_NODES, GAUSS3_WEIGHTS):
            pts = starts + (h * node) * e
            total += weight * field.potential(pts)[..., axis]
        return h * total
    raise ValidationError("quadrature must be 'midpoint' or 'gauss3'")


@dataclass
class LatticeOperator:
    matrix: sp.csr_matrix
    grid: Grid

    @property
    def n_sites(self):
        return self.grid.n_sites

    def quadratic_form(self, u):
        """h^d Re <u, H u>: the discrete magnetic Dirichlet form."""
        u = np.asarray(u)
        if u.shape != (self.n_sites,):
            raise ValidationError(f"vector must have shape ({self.n_sites},)")
        return float(self.grid.h**self.grid.dim * np.real(np.vdot(u, self.matrix @ u)))

    def norm_sq(self, u):
        u = np.asarray(u)
        return float(self.grid.h**self.grid.dim * np.real(np.vdot(u, u)))

    def lowest_eigenvalues(self, k=1, guess=None):
        """k smallest eigenpairs, residual-checked at ``RESIDUAL_RTOL``.

        The solve starts from the zero shift: the assembled operator is
        positive semidefinite, so that shift is always factorable.  A
        ``guess`` above 0 (an estimate of the lowest eigenvalue from below)
        is tried first and kept as the start shift only when its factor has
        no negative pivot; otherwise the solve starts from 0 as without it.
        """
        n = self.n_sites
        if k < 1 or k >= n:
            raise ValidationError(f"need 1 <= k < {n}")
        return _eigensolve(self.matrix, k, RESIDUAL_RTOL, 0.0, guess)

    def to_matrix_market(self, path):
        import scipy.io

        scipy.io.mmwrite(str(path), self.matrix.tocoo())


def gershgorin_lower_bound(A):
    """Certain lower bound on the spectrum of a Hermitian sparse matrix."""
    diag = A.diagonal().real
    row_abs = np.asarray(abs(A).sum(axis=1)).reshape(-1)
    return float(np.min(diag - (row_abs - np.abs(A.diagonal()))))


def _negative_pivots(lu):
    """Number of eigenvalues below the shift of a symmetric-mode factor.

    None when SuperLU pivoted off the diagonal (it does so at an exactly
    zero diagonal entry): with perm_r != perm_c the signs of U's pivots
    say nothing about the inertia.  Reading ``lu.U`` builds CSC copies of
    both L and U and caches them on the factor (27.6 MB at n = 29,844).
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal().real < 0.0))


@functools.cache
def _blas_pools():
    """(get, set) thread-count functions of the OpenBLAS that the numpy and
    scipy wheels bundle; empty under any other BLAS."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    pools = []
    for pkg in ("numpy", "scipy"):
        for path in sorted(glob.glob(os.path.join(site, pkg + ".libs", "*openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pools.append((get, put))
                    break
    return pools


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none (musl,
    macOS, Windows).  Looked up at the first use, not at import."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


@contextlib.contextmanager
def one_blas_thread():
    """Run every bundled OpenBLAS pool at one thread; restore the sizes after.

    The pools are looked up at the first use, not at import.
    """
    pools = _blas_pools()
    saved = [get() for get, _ in pools]
    try:
        for _, put in pools:
            put(1)
        yield
    finally:
        for (_, put), size in zip(pools, saved):
            put(size)


def _orthonormal(B):
    """Orthonormal basis of the columns of B; B may be overwritten."""
    return scipy.linalg.qr(B, mode="economic", overwrite_a=True, check_finite=False)[0]


def lowest_pairs(A, k, rtol, sigma=None, guess=None):
    """k lowest eigenpairs of a sparse Hermitian matrix, possibly indefinite.

    Shifted block inverse iteration with Rayleigh-Ritz extraction.  Two
    adaptive moves keep it from stalling, both deterministic:

    * the block grows when the residual stagnates, which is what resolves a
      near-degenerate lowest band (a Landau level in a large box splits only
      at the 1e-3 level or finer, and Ritz values separate geometrically
      only once the block spans the band);
    * the shift advances to the bound theta_1 - 4 |r_1| once the first Ritz
      pair is reasonably converged, which collapses the remaining error when
      the initial shift (a Gershgorin bound) is far below.

    A - shift I is factored by SuperLU in symmetric mode (MMD on A^T + A,
    diagonal pivots only), which halves the fill of the default ordering.
    With perm_r == perm_c the count of negative pivots of U is the number
    of eigenvalues below the shift (Sylvester's law of inertia), so an
    advance is kept only when that count is zero; otherwise (a count above
    0, no count, or a candidate that cannot be factored) the current
    factorization stays and the shift stops advancing.

    ``sigma`` must not exceed the smallest eigenvalue; None uses the
    Gershgorin bound.  A ``guess`` above ``sigma`` is factored first and
    becomes the start shift under the same rule as an advance: only when
    that factor has no negative pivot.  A count above 0, no count, or a
    failed factorization leaves the solve to start from ``sigma`` exactly
    as without a guess.  Residuals are measured against rtol * |A|_inf.  The
    start block and the columns added when it grows are drawn from one
    generator seeded with 0.  A real A is solved as complex.

    A step costs one solve and one sparse product: A Y serves both the
    Rayleigh quotient Y^H A Y and the residual A X = (A Y) S of the Ritz
    vectors X = Y S.  Blocks are orthonormalized by scipy's LAPACK economic
    QR, in place; a solve's block is checked finite before it.
    """
    A = A.tocsc().astype(complex, copy=False)
    n = A.shape[0]
    scale = max(1.0, spla.norm(A, np.inf))
    target = rtol * scale
    if sigma is None:
        sigma = gershgorin_lower_bound(A) - 1.0
    identity = sp.identity(n, dtype=A.dtype, format="csc")

    def factor(shift):
        for _ in range(3):
            try:
                return spla.splu(
                    A - shift * identity, permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True},
                ), shift
            except RuntimeError:
                shift -= max(1e-8 * (1.0 + abs(shift)), 1e-10)
        raise SolverError(f"factorization failed near shift {shift:.6e}")

    def below_spectrum(shift):
        """(factor, shift) at ``shift`` if its count is 0, else None."""
        try:
            cand = factor(shift)
        except SolverError:
            return None
        return cand if _negative_pivots(cand[0]) == 0 else None

    start = below_spectrum(guess) if guess is not None and guess > sigma else None
    lu, sigma = start or factor(sigma)
    m_cap = min(n, max(128, 4 * k))
    m = min(k + 2, m_cap)
    rng = np.random.default_rng(0)
    X = _orthonormal(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
    window, prev_res = 8, np.inf
    advances_ok, last_res = True, np.inf
    for it in range(MAX_ITERATIONS):
        Y = lu.solve(X)
        if not np.all(np.isfinite(Y)):
            lu, sigma = factor(sigma - max(1e-6 * (1.0 + abs(sigma)), 1e-8))
            continue
        Y = _orthonormal(Y)
        AY = A @ Y
        T = Y.conj().T @ AY
        theta, S = scipy.linalg.eigh(0.5 * (T + T.conj().T))
        X = Y @ S
        R = AY @ S[:, :k] - X[:, :k] * theta[:k]
        rnorms = np.linalg.norm(R, axis=0)
        last_res = float(np.max(rnorms))
        if last_res <= target:
            return theta[:k].real, X[:, :k]
        if it % window == window - 1:
            gap = theta[0] - sigma
            cand = theta[0] - 4.0 * float(rnorms[0])
            if (advances_ok and it >= 3 * window
                    and cand > sigma + 0.05 * gap
                    and rnorms[0] <= 0.05 * gap):
                kept = below_spectrum(cand)
                if kept:
                    lu, sigma = kept
                else:
                    advances_ok = False
            elif last_res > 0.5 * prev_res and m < m_cap:
                grow = min(m, m_cap - m)
                F = rng.normal(size=(n, grow)) + 1j * rng.normal(size=(n, grow))
                X = _orthonormal(np.hstack([X, F]))
                m += grow
            prev_res = last_res
    raise SolverError(
        f"inverse iteration stalled at residual {last_res:.3e} "
        f"(target {rtol:.0e} * |A| = {target:.3e}, block {m}, shift {sigma:.6e})"
    )


def _eigensolve(A, k, rtol, sigma, guess=None):
    """k lowest eigenpairs of a sparse Hermitian matrix, each with residual
    |A v - lambda v| / |v| at most rtol * |A|_inf.

    ``lowest_pairs`` from the shift ``sigma`` (or from ``guess``, when its
    factor has no negative pivot), at every size.  The public
    eigensolvers both call this and never each other, so that a traced
    eigensolve span does not nest.

    This is the one place that sets the BLAS thread policy: the solve and
    its residual check run with the numpy and scipy OpenBLAS pools at one
    thread, so the eigenpairs do not depend on the host's pool size.  A
    ``lowest_pairs`` step alternates between the two libraries (dense matmul
    in numpy's; the SuperLU solve, QR and eigh in scipy's); on a block at
    most 128 columns wide no part of it gains from a second thread, while
    two 2-thread pools contending for 2 cores take 8 to 23 ms per step
    against 6 ms at one thread (n = 4452, block 6).

    Every solve, failed ones included, ends by handing the freed heap back
    to the OS once its residuals are computed (glibc ``malloc_trim(0)``; a
    no-op under any other C library).  Once glibc has raised its mmap
    threshold, the factor's work arrays and the n x m blocks come from the
    brk heap, and freed chunks below live data would otherwise stay
    resident and stack under the next solve's peak.  The trim never changes
    a number.
    """
    try:
        with one_blas_thread():
            vals, vecs = lowest_pairs(A, k, rtol=rtol, sigma=sigma, guess=guess)
            target = rtol * max(1.0, spla.norm(A, np.inf))
            res = np.linalg.norm(A @ vecs - vecs * vals, axis=0) / np.linalg.norm(vecs, axis=0)
    finally:
        trim = _malloc_trim()
        if trim is not None:
            trim(0)
    bad = np.flatnonzero(res > target)
    if bad.size:
        i = bad[0]
        raise SolverError(
            f"eigenpair {i} residual {res[i]:.3e} exceeds {rtol:.0e} * |A| = {target:.3e}"
        )
    return vals, vecs


def min_eigenvalue_of(A, rtol=1e-6, sigma=None):
    """Smallest eigenvalue of a sparse Hermitian matrix of either sign,
    residual-checked at rtol.

    ``sigma`` (optional) is a known strict lower bound on the spectrum; a
    good one speeds convergence enormously when the Gershgorin bound is far
    below (weights like D^{-2} make it -1/delta^2).
    """
    vals, _ = _eigensolve(A, 1, rtol, sigma)
    return float(vals[0])


def assemble(field, dom, h, delta=0.0, quadrature="midpoint"):
    """Assemble the lattice operator for ``field`` on ``dom``.

    Link phases use the edge-midpoint value of the potential (or a 3-point
    Gauss rule).  A potential singularity on an edge is reported as an
    AssemblyError naming the edge.

    Interior sites carry the uniform diagonal 2d/h^2.  An arm that leaves the
    retained region is replaced by a wall term 1/(theta h^2) on the diagonal,
    where theta h is the distance from the site to the Dirichlet wall along
    that arm (linear ghost extrapolation through zero at the wall).  This
    places the effective boundary on the wall itself rather than on the
    removed neighbor site, keeping the operator Hermitian and nonnegative.
    """
    grid = build_grid(dom, h, delta=delta)
    n, d = grid.n_sites, grid.dim
    # Site number of every cell of the bounding box padded by one cell, -1 off
    # the grid: a neighbour lookup is one fancy index per (axis, sign).
    cells = grid.coords - grid.coords.min(axis=0) + 1
    table = np.full(tuple(cells.max(axis=0) + 2), -1, dtype=np.int64)
    table[tuple(cells.T)] = np.arange(n)
    h2 = h * h

    rows = [np.arange(n)]
    cols = [np.arange(n)]
    diag = np.full(n, 2.0 * d / h2, dtype=complex)
    vals = [diag]

    wall_sites = []
    wall_dirs = []
    for axis in range(d):
        step = np.eye(d, dtype=cells.dtype)[axis]
        partner = table[tuple((cells + step).T)]
        mask = partner >= 0
        if np.any(mask):
            starts = grid.sites[mask]
            try:
                exponents = _edge_phase_exponents(field, starts, axis, h, quadrature)
            except SingularityError as err:
                bad = _locate_singular_edge(field, starts, axis, h, quadrature)
                raise AssemblyError(
                    f"potential singular on edge along axis {axis} starting at "
                    f"{bad}: {err}"
                ) from err
            phases = np.exp(-1j * exponents)
            i_idx = np.nonzero(mask)[0]
            j_idx = partner[mask]
            rows.append(i_idx)
            cols.append(j_idx)
            vals.append(-phases / h2)
            rows.append(j_idx)
            cols.append(i_idx)
            vals.append(-np.conj(phases) / h2)
        # Wall arms axis-major, +1 before -1: np.add.at sums a site's wall
        # terms in this order.
        for sign, missing in ((1, ~mask), (-1, table[tuple((cells - step).T)] < 0)):
            wall_sites.append(np.nonzero(missing)[0])
            wall_dirs.append(np.broadcast_to(sign * step, (len(wall_sites[-1]), d)))
    arm_idx = np.concatenate(wall_sites)
    theta = _wall_fractions(dom, grid.sites[arm_idx], np.concatenate(wall_dirs), h, delta)
    np.add.at(diag, arm_idx, (1.0 / theta - 1.0) / h2)

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return LatticeOperator(matrix=matrix, grid=grid)


def _locate_singular_edge(field, starts, axis, h, quadrature):
    """The first offending edge for the AssemblyError message: a batch that
    raises is split in halves, head first, down to a single edge."""
    try:
        _edge_phase_exponents(field, starts, axis, h, quadrature)
    except SingularityError:
        if len(starts) == 1:
            return np.round(starts[0], 12).tolist()
        half = len(starts) // 2
        head = _locate_singular_edge(field, starts[:half], axis, h, quadrature)
        return head if head != "unknown" else _locate_singular_edge(
            field, starts[half:], axis, h, quadrature)
    return "unknown"


def plaquette_phases(field, base_points, h):
    """Product of the four midpoint-rule link phases around the square in the
    (x1, x2) plane at each base point.  For a smooth field this equals
    exp(-i h^2 b_12) + O(h^4) with b_12 at the plaquette center; exact for
    affine potentials."""
    pts = np.atleast_2d(np.asarray(base_points, dtype=float))
    e1, e2 = np.eye(pts.shape[1])[:2]
    t1 = _edge_phase_exponents(field, pts, 0, h, "midpoint")
    t2 = _edge_phase_exponents(field, pts + h * e1, 1, h, "midpoint")
    t3 = _edge_phase_exponents(field, pts + h * e2, 0, h, "midpoint")
    t4 = _edge_phase_exponents(field, pts, 1, h, "midpoint")
    return np.exp(-1j * (t1 + t2 - t3 - t4))


# ---------------------------------------------------------------------------
# commutator-style lower bound test


def _site_fields(op, field):
    return field.field_matrix_batch(op.grid.sites, domain=op.grid.domain)


def paired_component_expectation(op: LatticeOperator, field, u):
    """sum_j |<b_{2j-1,2j} u, u>| over the floor(d/2) coordinate planes."""
    return _paired(op, _site_fields(op, field), u)


def _paired(op, mats, u):
    u2 = np.abs(np.asarray(u)) ** 2
    total = 0.0
    scale = op.grid.h**op.grid.dim
    for j in range(op.grid.dim // 2):
        b = mats[:, 2 * j, 2 * j + 1]
        total += abs(scale * float(np.sum(b * u2)))
    return total


def _weighted(op, norms, u):
    """h^d sum (1 + |B|_sp^2) |u|^2: the norm the error term is measured in."""
    u2 = np.abs(np.asarray(u)) ** 2
    return float(op.grid.h**op.grid.dim * np.sum((1.0 + norms**2) * u2))


def _trial_vectors(op, n_random, seed, n_eigenvectors):
    rng = np.random.default_rng(seed)
    n = op.n_sites
    trials = []
    for _ in range(n_random):
        trials.append(("random_real", rng.normal(size=n).astype(complex)))
        trials.append(
            ("random_complex", rng.normal(size=n) + 1j * rng.normal(size=n))
        )
    if n_eigenvectors:
        _, vecs = op.lowest_eigenvalues(k=n_eigenvectors)
        for i in range(n_eigenvectors):
            trials.append((f"eigenvector_{i}", vecs[:, i].astype(complex)))
    return trials


def calibrate_form_constant(dom, h, field_builder):
    """Calibrate K once: twice the worst observed deficit rate on the fields
    of the strengths ``CALIBRATION_STRENGTHS`` at the coarsest spacing.

    The trials are the K = 0 rows of ``commutator_bound_test`` (4 random
    pairs with seed 11, two eigenvectors), where slack = form - paired; a
    negative slack is a deficit, and its rate is -slack / (h |u|_w^2).
    Returns (K, {strength: rate}).
    """
    rates = {}
    for b in CALIBRATION_STRENGTHS:
        rate = 0.0
        for row in commutator_bound_test(field_builder(b), dom, h, 0.0, n_random=4, seed=11):
            if row["slack"] < 0:
                rate = max(rate, -row["slack"] / (h * row["weighted_norm_sq"]))
        rates[b] = rate
    return 2.0 * max(rates.values()), rates


def commutator_bound_test(field, dom, h, K, delta=0.0, n_random=4, seed=5,
                          n_eigenvectors=2):
    """Slack rows for random and low-energy trial vectors at one spacing.

    slack = h_A(u) + K h |u|_w^2 - sum_j |<b_j u, u>|, nonnegative when the
    discrete form dominates the paired field expectation up to O(h)."""
    op = assemble(field, dom, h, delta=delta)
    mats = _site_fields(op, field)
    norms = norm_sp_batch(mats)
    rows = []
    for name, u in _trial_vectors(op, n_random, seed, n_eigenvectors):
        form, paired, weighted = op.quadratic_form(u), _paired(op, mats, u), _weighted(op, norms, u)
        rows.append(
            {
                "trial": name,
                "h": h,
                "slack": form + K * op.grid.h * weighted - paired,
                "form": form,
                "paired": paired,
                "weighted_norm_sq": weighted,
            }
        )
    return rows


def ground_state_deficit(field, dom, h):
    """paired expectation minus form on the normalized ground state: the
    discretization deficit, O(h^2) in the bulk for a constant field."""
    op = assemble(field, dom, h)
    _, vecs = op.lowest_eigenvalues(k=1)
    u = vecs[:, 0]
    u = u / math.sqrt(op.norm_sq(u))
    return paired_component_expectation(op, field, u) - op.quadratic_form(u)


# ---------------------------------------------------------------------------
# truncated-domain probe


def hur_hypothesis_probe(field, dom, eps=0.1, deltas=(0.1, 0.05, 0.025),
                         h_divisor=2.5, tol=1e-6):
    """Lowest eigenvalue of the operator minus each comparison weight.

    Per truncation depth delta, tabulates the minimum eigenvalue of

        H - (1 - eps) diag(|B|_sp(x))    (column lambda_min_field)
        H - diag(D(x)^{-2})              (column lambda_min_hardy)

    The spacing is h = delta / h_divisor (h < delta/2 needs h_divisor > 2).
    When the margin |B|_sp D^2 stays below 1 near the boundary the hardy
    column dives like -1/delta^2 as the truncation recedes; a field
    dominating D^{-2} pointwise keeps it in a fixed band.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    rows = []
    prev = {}
    for delta in deltas:
        h = delta / h_divisor
        op = assemble(field, dom, h, delta=delta)
        sites = op.grid.sites
        bnorm = norm_sp_batch(field.field_matrix_batch(sites, domain=dom))
        dist = np.asarray(dom.distance(sites), dtype=float)
        row = {
            "delta": float(delta),
            "h": float(h),
            "n_sites": op.n_sites,
        }
        for label, w in (
            ("lambda_min_field", (1.0 - eps) * bnorm),
            ("lambda_min_hardy", dist**-2.0),
        ):
            shifted = (op.matrix - sp.diags(w)).tocsc()
            # Enlarging the retained region (extension of trials by zero)
            # only lowers the minimum, so the previous row bounds this one
            # from above; a generous multiple of it is a safe shift even
            # for 1/delta^2-type collapse, and it spares the engine the
            # Gershgorin cold start of -max(weight).
            sigma = None
            if label in prev:
                sigma = prev[label] - 5.0 * (abs(prev[label]) + 1.0)
            lam = min_eigenvalue_of(shifted, rtol=tol, sigma=sigma)
            row[label] = lam
            prev[label] = lam
        row["hardy_scaled"] = row["lambda_min_hardy"] * delta * delta
        rows.append(row)
    return rows
