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

import numpy as np

from .errors import DomainError, ValidationError

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

    def __repr__(self):
        return f"TwoForm(dim={self.dim}, entries={self.entries.tolist()})"


def plane_two_form(b: float) -> TwoForm:
    """Constant-coefficient planar form b dx_1 ^ dx_2."""
    return TwoForm([[0.0, b], [-b, 0.0]])


def axial_matrices(v) -> np.ndarray:
    """(..., 3, 3) coefficients of the two-forms with axial vectors v (..., 3)."""
    mats = np.zeros(v.shape[:-1] + (3, 3))
    mats[..., 1, 2], mats[..., 2, 0], mats[..., 0, 1] = v[..., 0], v[..., 1], v[..., 2]
    mats[..., 2, 1], mats[..., 0, 2], mats[..., 1, 0] = -v[..., 0], -v[..., 1], -v[..., 2]
    return mats


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


# Finite-difference step: relative floor plus a fraction of the distance to the
# boundary, so the stencil never crosses a boundary singularity.
FD_BASE = 1e-5
FD_BOUNDARY_FRACTION = 0.02


def central_difference_batch(potential, x, dim, domain=None) -> np.ndarray:
    """Central-difference coefficients of dA at points x, shape (..., d) -> (..., d, d).

    The step is ``FD_BASE`` * (1 + |x|), shrunk near ``domain``'s boundary.
    One potential call per axis and sign covers every point.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, dim)
    h = FD_BASE * (1.0 + np.linalg.norm(pts, axis=-1))
    if domain is not None:
        dist = domain.signed_distance(pts)
        if not np.all(dist > 0):
            raise DomainError("field evaluation outside the domain")
        h = np.minimum(h, FD_BOUNDARY_FRACTION * dist)
    jac = np.empty((pts.shape[0], dim, dim))
    for j in range(dim):
        dx = h[:, None] * np.eye(dim)[j]
        jac[:, j, :] = (potential(pts + dx) - potential(pts - dx)) / (2.0 * h[:, None])
    return (jac - np.swapaxes(jac, -1, -2)).reshape(x.shape[:-1] + (dim, dim))
