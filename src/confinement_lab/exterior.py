"""Antisymmetric two-forms, their spectral norm, and exterior derivatives.

The spectral norm of a two-form B at a point is half the trace norm of the
skew matrix of its coefficients: the singular values of a real skew matrix
come in equal pairs (b_1, b_1, b_2, b_2, ...), and

    |B|_sp = b_1 + b_2 + ...

In dimension 2 this is |b_12|; in dimension 3 it is the Euclidean length of
the axial vector.  For a constant field it equals the bottom of the spectrum
of the associated magnetic Hamiltonian, which is what makes it the right
pointwise weight for confinement bounds.
"""

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .errors import ChartRankError, DomainError, ValidationError

# Pair-matching tolerance for singular values of a skew matrix (relative).
PAIRING_TOL = 1e-9
# Antisymmetry tolerance for TwoForm input (relative to the largest entry).
SKEW_TOL = 1e-12
# A two-form below this spectral norm has no well-defined direction.
DIRECTION_FLOOR = 1e-12


class TwoForm:
    """Two-form at a point, stored as a d x d antisymmetric coefficient matrix.

    entries[j, k] is the coefficient of dx_j ^ dx_k, so entries[k, j] equals
    -entries[j, k] exactly (enforced on construction).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"two-form entries must be square, got shape {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        asym = float(np.max(np.abs(m + m.T))) if m.size else 0.0
        if asym > SKEW_TOL * scale:
            raise ValidationError(
                f"two-form entries are not antisymmetric: |B + B^T| = {asym:.3e}"
            )
        # Exact antisymmetry regardless of roundoff in the input.
        self.entries = 0.5 * (m - m.T)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other):
        return TwoForm(self.entries + other.entries)

    def __sub__(self, other):
        return TwoForm(self.entries - other.entries)

    def __mul__(self, c):
        return TwoForm(self.entries * float(c))

    __rmul__ = __mul__

    def __repr__(self):
        return f"TwoForm(dim={self.dim}, entries={self.entries.tolist()})"


@dataclass
class CoVector:
    """One-form at a point (a row of coefficients against dx_1 ... dx_d)."""

    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float).reshape(-1)

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


@dataclass
class SpectralDecomposition:
    """Paired singular values of a skew matrix, their sum, and the unit direction."""

    pairs: np.ndarray            # nonincreasing, length floor(d/2)
    norm_sp: float               # sum of pairs = half the trace norm
    direction: Optional[TwoForm]  # B / |B|_sp, or None below DIRECTION_FLOOR


def plane_two_form(b: float, dim: int = 2) -> TwoForm:
    """Constant-coefficient form b dx_1 ^ dx_2 in the given dimension."""
    m = np.zeros((dim, dim))
    m[0, 1] = b
    m[1, 0] = -b
    return TwoForm(m)


def axial_matrices(v) -> np.ndarray:
    """(..., 3, 3) coefficients of the two-forms with axial vectors v (..., 3)."""
    mats = np.zeros(v.shape[:-1] + (3, 3))
    mats[..., 1, 2], mats[..., 2, 0], mats[..., 0, 1] = v[..., 0], v[..., 1], v[..., 2]
    mats[..., 2, 1], mats[..., 0, 2], mats[..., 1, 0] = -v[..., 0], -v[..., 1], -v[..., 2]
    return mats


def axial_two_form(v) -> TwoForm:
    """d = 3 two-form with axial vector v: v_1 dy^dz + v_2 dz^dx + v_3 dx^dy."""
    return TwoForm(axial_matrices(np.asarray(v, dtype=float).reshape(3)))


def axial_vector(B: TwoForm) -> np.ndarray:
    """Inverse of axial_two_form (d = 3 only)."""
    if B.dim != 3:
        raise ValidationError("axial vector is defined for d = 3 only")
    m = B.entries
    return np.array([m[1, 2], m[2, 0], m[0, 1]])


def _as_skew_matrix(B) -> np.ndarray:
    if isinstance(B, TwoForm):
        return B.entries
    return TwoForm(B).entries


def spectral_norm(B) -> SpectralDecomposition:
    """Spectral decomposition of a two-form.

    Parameters
    ----------
    B : TwoForm or array_like
        Antisymmetric d x d coefficient matrix.

    Returns
    -------
    SpectralDecomposition
        Paired singular values (nonincreasing), their sum, and the direction
        B / |B|_sp (None when the norm is below ``DIRECTION_FLOOR``).

    Notes
    -----
    Singular values are obtained from a symmetric eigensolve of B^T B.  For a
    genuine skew matrix they occur in equal pairs, with one extra zero in odd
    dimension; a leftover unpaired singular value beyond the pairing tolerance
    means the input was not a two-form and raises ValidationError.
    """
    m = _as_skew_matrix(B)
    d = m.shape[0]
    if d == 0:
        raise ValidationError("empty two-form")
    # Eigenvalues of B^T B are the squared singular values.  Pairing is
    # checked on these eigenvalues directly: taking square roots first would
    # amplify machine noise near zero from eps to sqrt(eps).
    w = np.linalg.eigvalsh(m.T @ m)[::-1]  # nonincreasing
    w = np.clip(w, 0.0, None)
    wscale = max(1.0, float(w[0]))
    n_pairs = d // 2
    for j in range(n_pairs):
        if abs(w[2 * j] - w[2 * j + 1]) > PAIRING_TOL * wscale:
            raise ValidationError(
                "singular values of a skew matrix must pair up; got squared values "
                f"{w[2 * j]:.12e} vs {w[2 * j + 1]:.12e}"
            )
    if d % 2 == 1 and w[-1] > PAIRING_TOL * wscale:
        raise ValidationError(
            f"odd-dimension skew matrix must have a zero singular value, got {np.sqrt(w[-1]):.3e}"
        )
    svals = np.sqrt(w)
    pairs = svals[0 : 2 * n_pairs : 2].copy()
    norm = float(np.sum(pairs))
    direction = None
    if norm >= DIRECTION_FLOOR:
        direction = TwoForm(m / norm)
    return SpectralDecomposition(pairs=pairs, norm_sp=norm, direction=direction)


def norm_sp_batch(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of skew matrices, shape (..., d, d) -> (...)."""
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    if d == 2:
        return np.abs(mats[..., 0, 1])
    if d == 3:
        v = np.stack([mats[..., 1, 2], mats[..., 2, 0], mats[..., 0, 1]], axis=-1)
        return np.linalg.norm(v, axis=-1)
    w = np.linalg.eigvalsh(np.swapaxes(mats, -1, -2) @ mats)
    svals = np.sqrt(np.clip(w, 0.0, None))[..., ::-1]
    return np.sum(svals[..., 0 : 2 * (d // 2) : 2], axis=-1)


@dataclass
class PotentialField:
    """A magnetic potential one-form, with an optional closed-form derivative.

    ``potential`` maps points of shape (..., d) to coefficient arrays of the
    same shape.  When ``field`` is provided it must return the (..., d, d)
    antisymmetric coefficient matrices of dA and is used instead of finite
    differences.
    """

    potential: Callable[[np.ndarray], np.ndarray]
    dim: int
    field: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: object = None
    meta: dict = dataclass_field(default_factory=dict)


# Finite-difference step: relative floor plus a fraction of the distance to the
# boundary, so the stencil never crosses a boundary singularity.
FD_BASE = 1e-5
FD_BOUNDARY_FRACTION = 0.02


def central_difference_batch(potential, x, dim, domain=None, step=None) -> np.ndarray:
    """Central-difference coefficients of dA at points x, shape (..., d) -> (..., d, d).

    The step is ``step``, or 1e-5 * (1 + |x|) shrunk near ``domain``'s
    boundary.  One potential call per axis and sign covers every point.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, dim)
    if step is None:
        h = FD_BASE * (1.0 + np.linalg.norm(pts, axis=-1))
        if domain is not None:
            if not np.all(domain.contains(pts)):
                raise DomainError("field evaluation outside the domain")
            h = np.minimum(h, FD_BOUNDARY_FRACTION * domain._distance_raw(pts))
    else:
        h = np.full(pts.shape[0], float(step))
    jac = np.empty((pts.shape[0], dim, dim))
    for j in range(dim):
        dx = h[:, None] * np.eye(dim)[j]
        jac[:, j, :] = (potential(pts + dx) - potential(pts - dx)) / (2.0 * h[:, None])
    return (jac - np.swapaxes(jac, -1, -2)).reshape(x.shape[:-1] + (dim, dim))


def exterior_derivative(A: PotentialField, x, step: Optional[float] = None) -> TwoForm:
    """Two-form dA at a point x of shape (d,).

    Closed-form dA when ``A.field`` is available, otherwise the central
    difference (dA)_jk = d_j a_k - d_k a_j + O(step^2) of
    ``central_difference_batch``, whose default step shrinks near the
    boundary of ``A.domain``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.shape[0]
    if d != A.dim:
        raise ValidationError(f"point has dimension {d}, potential expects {A.dim}")
    if A.domain is not None and not A.domain.contains(x):
        raise DomainError(f"evaluation point {x.tolist()} lies outside the domain")
    if A.field is not None:
        return TwoForm(A.field(x))
    if step is not None and step <= 0:
        raise ValidationError("finite-difference step must be positive")
    return TwoForm(central_difference_batch(A.potential, x, d, domain=A.domain, step=step))


def pullback_to_surface(A0, chart: Callable, u, step: float = 1e-6) -> CoVector:
    """Pullback of a one-form on R^d to a parametrized surface.

    Parameters
    ----------
    A0 : PotentialField or callable
        One-form on the ambient space; a bare callable is treated as the
        potential map.
    chart : callable
        Map from (d-1,) parameters to (d,) ambient points.
    u : array_like, shape (d-1,)
        Chart parameters of the evaluation point.
    step : float
        Central-difference step for the chart Jacobian.

    Returns
    -------
    CoVector of dimension d-1 with components sum_j a_j(chart(u)) * dchart_j/du_i.

    Raises
    ------
    ChartRankError
        If the chart Jacobian is rank-deficient at u (degenerate chart).
    """
    pot = A0.potential if isinstance(A0, PotentialField) else A0
    u = np.asarray(u, dtype=float).reshape(-1)
    p = np.asarray(chart(u), dtype=float).reshape(-1)
    d = p.shape[0]
    k = u.shape[0]
    if k != d - 1:
        raise ValidationError(f"chart parameters must have dimension d-1 = {d - 1}, got {k}")
    jac = np.empty((d, k))
    for i in range(k):
        du = np.zeros(k)
        du[i] = step
        jac[:, i] = (np.asarray(chart(u + du), float) - np.asarray(chart(u - du), float)) / (2 * step)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[-1] <= 1e-8 * max(sv[0], 1.0):
        raise ChartRankError(f"degenerate chart Jacobian at u = {u.tolist()}")
    a = np.asarray(pot(p), dtype=float).reshape(-1)
    return CoVector(jac.T @ a)
