import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinement_lab import exterior
from confinement_lab.errors import ValidationError
from confinement_lab.exterior import (
    TwoForm,
    axial_matrices,
    central_difference_batch,
    norm_sp_batch,
    plane_two_form,
)
from confinement_lab.fields import MagneticField


def random_skew(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) * scale
    return m - m.T


def half_nuclear_norm(m):
    # Independent oracle: half the sum of all singular values via SVD.
    return 0.5 * float(np.sum(np.linalg.svd(np.asarray(m, float), compute_uv=False)))


class TestSpectralNorm:
    def test_plane_form_d2(self):
        assert norm_sp_batch(plane_two_form(-2.5).entries) == pytest.approx(2.5, abs=1e-14)

    def test_block_diagonal_d4(self):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 3.0, -3.0
        m[2, 3], m[3, 2] = 1.0, -1.0
        assert norm_sp_batch(TwoForm(m).entries) == pytest.approx(4.0, abs=1e-12)

    def test_axial_d3(self):
        assert norm_sp_batch(axial_matrices(np.array([1.0, 2.0, 2.0]))) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_matches_half_nuclear_norm_randomly(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = int(rng.integers(2, 7))
            m = random_skew(rng, d, scale=float(rng.uniform(0.1, 10.0)))
            assert norm_sp_batch(m) == pytest.approx(
                half_nuclear_norm(m), rel=1e-10, abs=1e-12
            )

    def test_d3_equals_axial_vector_length(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=3)
            assert norm_sp_batch(axial_matrices(v)) == pytest.approx(
                float(np.linalg.norm(v)), rel=1e-12
            )

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4, 5):
            m = random_skew(rng, d)
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            assert norm_sp_batch(q.T @ m @ q) == pytest.approx(norm_sp_batch(m), rel=1e-10)

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            a, b = random_skew(rng, d), random_skew(rng, d)
            c = float(rng.uniform(0.1, 5.0))
            na, nb = norm_sp_batch(a), norm_sp_batch(b)
            assert norm_sp_batch(c * a) == pytest.approx(c * na, rel=1e-10)
            assert norm_sp_batch(a + b) <= na + nb + 1e-10

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValidationError):
            TwoForm(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_two_form_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            TwoForm(np.zeros((2, 3)))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(19)
        for d in (2, 3, 4):
            mats = np.stack([random_skew(rng, d) for _ in range(20)])
            batch = norm_sp_batch(mats)
            for i in range(20):
                assert batch[i] == pytest.approx(half_nuclear_norm(mats[i]), rel=1e-10)


@st.composite
def skew_pairs(draw):
    """(a, b, q, c): two skew matrices in d = 2..6, an orthogonal q, a scale c > 0."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    a, b = random_skew(rng, d, scale), random_skew(rng, d, scale)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return a, b, q, draw(st.floats(1e-2, 1e2))


class TestNormSpProperties:
    """The production |B|_sp (closed forms in d = 2, 3; eigvalsh for d >= 4)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(skew_pairs())
    def test_norm_axioms_and_svd_oracle(self, case):
        a, b, q, c = case
        na, nb = norm_sp_batch(a), norm_sp_batch(b)
        assert na == pytest.approx(half_nuclear_norm(a), rel=1e-10, abs=1e-12)
        assert norm_sp_batch(q.T @ a @ q) == pytest.approx(na, rel=1e-10, abs=1e-12)
        assert norm_sp_batch(c * a) == pytest.approx(c * na, rel=1e-10, abs=1e-12)
        assert norm_sp_batch(a + b) <= (na + nb) * (1.0 + 1e-10) + 1e-12


class TestExteriorDerivative:
    def test_linear_potential_constant_field(self):
        # a = (1/2) B^T x reproduces the constant two-form exactly (central
        # differences are exact on affine components).
        b = np.array([[0.0, 2.0], [-2.0, 0.0]])
        dA = central_difference_batch(lambda x: 0.5 * (x @ b), np.array([0.3, -0.7]), 2)
        assert np.allclose(dA, b, atol=1e-9)

    def test_quadratic_gradient_is_closed(self):
        # d(dF) = 0: the gradient of F = x^2 y + 3y^2 - x z has zero curl; for
        # polynomials of this degree the second differences cancel exactly.
        def grad(x):
            x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
            return np.stack([2 * x1 * x2 - x3, x1**2 + 6 * x2, -x1], axis=-1)

        rng = np.random.default_rng(2)
        for _ in range(10):
            dA = central_difference_batch(grad, rng.uniform(-2, 2, size=3), 3)
            assert np.max(np.abs(dA)) < 1e-8

    def test_closed_form_short_circuits_fd(self):
        calls = {"n": 0}

        class Closed(MagneticField):
            dim = 2

            def potential(self, x):
                calls["n"] += 1
                return np.zeros_like(x)

            def _closed_field(self, x):
                return np.array([[0.0, 5.0], [-5.0, 0.0]])

        dA = Closed().field_matrix_batch(np.array([0.0, 0.0]))
        assert dA[0, 1] == 5.0
        assert calls["n"] == 0

    def test_fd_order_two(self, monkeypatch):
        # a = (0, sin(x)): dA = cos(x) dx^dy; halving the step shrinks the
        # error by about 4.
        def pot(x):
            return np.stack([np.zeros_like(x[..., 0]), np.sin(x[..., 0])], axis=-1)

        x = np.array([0.9, 0.2])
        errs = []
        for h in (1e-2, 5e-3):
            monkeypatch.setattr(exterior, "FD_BASE", h / (1.0 + np.linalg.norm(x)))
            dA = central_difference_batch(pot, x, 2)
            errs.append(abs(dA[0, 1] - np.cos(0.9)))
        assert errs[0] / errs[1] > 3.5
