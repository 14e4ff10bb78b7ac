"""Lattice operator assembly, gauge covariance, eigensolver, and probes."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from confinement_lab.domains import Ball3D, Disk2D, PuncturedSpace, axis_box, rotated_unit_square
from confinement_lab.errors import (
    AssemblyError,
    SingularityError,
    SolverError,
    ValidationError,
)
from confinement_lab.exterior import TwoForm, norm_sp_batch, plane_two_form
from confinement_lab.fields import (
    ConstantField,
    DiskCounterexampleField,
    GaugeShiftField,
    Polynomial,
    PolytopeField,
)
from confinement_lab.lattice import (
    assemble,
    build_grid,
    calibrate_form_constant,
    commutator_bound_test,
    gershgorin_lower_bound,
    ground_state_deficit,
    hur_hypothesis_probe,
    lowest_pairs,
    min_eigenvalue_of,
    paired_component_expectation,
    plaquette_phases,
)
from confinement_lab import lattice
from confinement_lab.lattice import _negative_pivots, _trial_vectors

J01_SQ = 5.783185962946785   # squared first zero of J0: disk Dirichlet ground value
LANDAU_SIDE10 = 0.9922212013325
DISCRETE_LANDAU = 1.0 - 0.25**2 / 8.0


def unit_square():
    return axis_box([0.0, 0.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# grid construction


def test_grid_cell_centered_count():
    g = build_grid(unit_square(), 0.25)
    assert g.n_sites == 16
    assert np.allclose(g.sites.min(axis=0), [0.125, 0.125])
    assert np.allclose(g.sites.max(axis=0), [0.875, 0.875])


def test_grid_truncation_removes_rim():
    g = build_grid(Disk2D(1.0), 0.05, delta=0.2)
    d = Disk2D(1.0).distance(g.sites)
    assert np.all(d > 0.2)


def test_grid_validations():
    with pytest.raises(ValidationError):
        build_grid(unit_square(), 0.0)
    with pytest.raises(ValidationError):
        build_grid(unit_square(), 0.1, delta=-0.1)
    with pytest.raises(ValidationError):
        build_grid(unit_square(), 0.11, delta=0.2)
    with pytest.raises(ValidationError):
        build_grid(PuncturedSpace(3), 0.1)
    with pytest.raises(ValidationError):
        build_grid(Disk2D(0.04), 1.0)


# ---------------------------------------------------------------------------
# assembly algebra


def test_operator_hermitian_exactly():
    op = assemble(DiskCounterexampleField(0.3), Disk2D(1.0), 0.1)
    gap = op.matrix - op.matrix.conj().T
    assert gap.nnz == 0


def test_spike_quadratic_form_value():
    # spike at an interior site (all four neighbors retained): 2d * h^(d-2)
    op = assemble(ConstantField(plane_two_form(1.0)), unit_square(), 0.25)
    center = np.argmin(np.linalg.norm(op.grid.sites - 0.5, axis=1))
    u = np.zeros(op.n_sites, dtype=complex)
    u[center] = 1.0
    assert op.quadratic_form(u) == pytest.approx(4.0, abs=1e-14)


def test_dimension_four_assembly():
    m = np.zeros((4, 4))
    m[0, 1], m[2, 3] = 3.0, 1.0
    op = assemble(ConstantField(TwoForm(m - m.T)), axis_box([-1.0] * 4, [1.0] * 4), 0.5)
    assert op.n_sites == 256
    assert (op.matrix - op.matrix.conj().T).nnz == 0
    center = np.argmin(np.linalg.norm(op.grid.sites - 0.25, axis=1))
    u = np.zeros(256, dtype=complex)
    u[center] = 1.0
    assert op.quadratic_form(u) == pytest.approx(2.0, abs=1e-14)


def test_quadrature_name_validated():
    with pytest.raises(ValidationError):
        assemble(ConstantField(plane_two_form(1.0)), unit_square(), 0.25,
                 quadrature="simpson")


def test_singular_edge_reported():
    class StringLineField:
        kind = "string_line"

        def potential(self, x):
            x = np.asarray(x, dtype=float)
            if np.any(np.abs(x[..., 0]) < 1e-12):
                raise SingularityError("potential has a pole on the line x1 = 0")
            return np.stack([np.zeros_like(x[..., 0]), 1.0 / x[..., 0]], axis=-1)

    dom = axis_box([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(AssemblyError, match="axis 0"):
        assemble(StringLineField(), dom, 0.5)


def test_singular_edge_located_by_bisection():
    class PoleLineField:
        kind = "pole_line"
        calls = 0

        def potential(self, x):
            self.calls += 1
            x = np.asarray(x, dtype=float)
            if np.any(np.abs(x[..., 0] - 0.99) < 1e-9):
                raise SingularityError("potential has a pole on the line x1 = 0.99")
            return np.stack([np.zeros_like(x[..., 0]), 1.0 / (x[..., 0] - 0.99)], axis=-1)

    # 200 x 200 sites; the first singular edge is the 39,601st along axis 0.
    field = PoleLineField()
    with pytest.raises(AssemblyError) as err:
        assemble(field, axis_box([-1.0, -1.0], [1.0, 1.0]), 0.01)
    assert "along axis 0 starting at [0.985, -0.995]:" in str(err.value)
    assert field.calls < 100


def test_gauss3_matches_midpoint_for_affine_potential():
    dom = unit_square()
    f = ConstantField(plane_two_form(1.7))
    a = assemble(f, dom, 0.2, quadrature="midpoint").matrix
    b = assemble(f, dom, 0.2, quadrature="gauss3").matrix
    assert abs(a - b).max() < 1e-15


def test_gauss3_differs_on_curved_potential():
    f = DiskCounterexampleField(0.4)
    a = assemble(f, Disk2D(1.0), 0.1, quadrature="midpoint").matrix
    b = assemble(f, Disk2D(1.0), 0.1, quadrature="gauss3").matrix
    assert abs(a - b).max() > 1e-12


# ---------------------------------------------------------------------------
# plaquettes and gauge covariance


def test_plaquette_exact_for_constant_field():
    f = ConstantField(plane_two_form(1.3))
    base = np.array([[0.2, -0.4], [0.0, 0.0], [-1.1, 0.7]])
    ph = plaquette_phases(f, base, h=0.1)
    assert np.allclose(ph, np.exp(-1j * 0.01 * 1.3), atol=1e-14)


def test_plaquette_tracks_flux_on_smooth_field():
    f = DiskCounterexampleField(0.3)
    errs = []
    for h in (0.02, 0.01):
        base = np.array([[0.3, 0.1]])
        ph = plaquette_phases(f, base, h=h)
        center = base[0] + h / 2.0
        b = f.field_matrix_batch(center[None, :])[0, 0, 1]
        errs.append(abs(ph[0] - np.exp(-1j * h * h * b)))
    assert errs[1] < errs[0] / 4.0


def test_gauge_shift_spectrum_invariant():
    dom = Disk2D(1.0)
    base = ConstantField(plane_two_form(1.0))
    shifted = GaugeShiftField(base, Polynomial([(1.0, (2, 0)), (-3.0, (1, 1))]))
    va, _ = assemble(base, dom, 0.1).lowest_eigenvalues(k=5)
    vb, _ = assemble(shifted, dom, 0.1).lowest_eigenvalues(k=5)
    assert np.max(np.abs(va - vb)) < 1e-10


def _monomials(dim):
    """Exponents of every monomial of degree 1 or 2 in ``dim`` variables."""
    eye = np.eye(dim, dtype=int)
    return [tuple(e) for e in eye] + [
        tuple(eye[i] + eye[j]) for i in range(dim) for j in range(i, dim)
    ]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_spectrum_invariant_under_random_gauge(dim, seed, grid_fraction):
    # At most about 720 sites.  The midpoint link phases integrate the
    # gradient of a degree <= 2 polynomial exactly.
    rng = np.random.default_rng(seed)
    if dim == 2:
        base, dom, h = DiskCounterexampleField(0.4), Disk2D(1.0), 0.08 + 0.07 * grid_fraction
    else:
        m = rng.normal(size=(3, 3))
        base, dom, h = ConstantField(m - m.T), Ball3D(1.0), 0.18 + 0.12 * grid_fraction
    exps = _monomials(dim)
    poly = Polynomial(list(zip(rng.uniform(-3.0, 3.0, len(exps)).tolist(), exps)))
    op_a, op_b = assemble(base, dom, h), assemble(GaugeShiftField(base, poly), dom, h)
    assert op_b.n_sites == op_a.n_sites
    va, _ = op_a.lowest_eigenvalues(k=3)
    vb, _ = op_b.lowest_eigenvalues(k=3)
    np.testing.assert_allclose(vb, va, rtol=1e-10)


def test_gauge_shift_conjugates_quadratic_form():
    dom = Disk2D(1.0)
    F = Polynomial([(1.0, (2, 0)), (-3.0, (1, 1))])
    base = ConstantField(plane_two_form(1.0))
    op_a = assemble(base, dom, 0.1)
    op_b = assemble(GaugeShiftField(base, F), dom, 0.1)
    rng = np.random.default_rng(7)
    u = rng.normal(size=op_a.n_sites) + 1j * rng.normal(size=op_a.n_sites)
    phase = np.exp(1j * F.value(op_a.grid.sites))
    assert op_b.quadratic_form(phase * u) == pytest.approx(
        op_a.quadratic_form(u), rel=1e-10
    )


# ---------------------------------------------------------------------------
# eigensolver


def test_disk_laplacian_ground_value():
    op = assemble(ConstantField(plane_two_form(0.0)), Disk2D(1.0), 0.05)
    vals, _ = op.lowest_eigenvalues(k=1)
    assert vals[0] == pytest.approx(5.7793113211, abs=1e-5)
    assert abs(vals[0] - J01_SQ) < 0.01


def test_disk_laplacian_convergence_order():
    # wall-fitted scheme: error within 2% at h=0.1 and near-quadratic decay
    errs = []
    for h in (0.1, 0.05, 0.025):
        op = assemble(ConstantField(plane_two_form(0.0)), Disk2D(1.0), h)
        vals, _ = op.lowest_eigenvalues(k=1)
        errs.append(abs(vals[0] - J01_SQ))
    assert errs[0] / J01_SQ < 0.02
    assert errs[0] / errs[1] > 2.0 ** 1.8
    assert errs[1] / errs[2] > 2.0 ** 1.8


def test_landau_bottom_side10():
    op = assemble(ConstantField(plane_two_form(1.0)),
                  axis_box([-5.0, -5.0], [5.0, 5.0]), 0.25)
    vals, _ = op.lowest_eigenvalues(k=1)
    assert vals[0] == pytest.approx(LANDAU_SIDE10, abs=5e-6)
    assert vals[0] > DISCRETE_LANDAU


def test_lowest_eigenvalues_match_dense_oracle():
    op = assemble(ConstantField(plane_two_form(1.0)),
                  axis_box([-2.5, -2.5], [2.5, 2.5]), 0.25)
    dense_vals = scipy.linalg.eigh(op.matrix.toarray(), eigvals_only=True,
                                   subset_by_index=(0, 2))
    sparse_vals, _ = op.lowest_eigenvalues(k=3)
    assert np.max(np.abs(dense_vals - sparse_vals)) < 1e-7


def test_eigenvectors_orthonormal_and_sorted():
    op = assemble(ConstantField(plane_two_form(1.0)),
                  axis_box([-2.5, -2.5], [2.5, 2.5]), 0.25)
    vals, vecs = op.lowest_eigenvalues(k=4)
    assert np.all(np.diff(vals) >= -1e-12)
    gram = vecs.conj().T @ vecs
    assert np.max(np.abs(gram - np.eye(4))) < 1e-8


def test_lowest_pairs_maxiter_raises(pools_at_two, monkeypatch):
    op = assemble(ConstantField(plane_two_form(1.0)),
                  axis_box([-5.0, -5.0], [5.0, 5.0]), 0.25)
    monkeypatch.setattr(lattice, "MAX_ITERATIONS", 2)
    with pytest.raises(SolverError):
        lowest_pairs(op.matrix, 1, rtol=1e-8, sigma=0.0)
    assert set(pools_at_two()) == {2}


def test_lowest_pairs_runs_on_one_blas_thread(pools_at_two, monkeypatch):
    seen = []

    def splu(M, *args, **kwargs):
        seen.append((M.shape[0], pools_at_two()))
        return spla.splu(M, *args, **kwargs)

    monkeypatch.setattr(lattice, "spla", SimpleNamespace(splu=splu, norm=spla.norm))
    op = assemble(ConstantField(plane_two_form(1.0)),
                  axis_box([-5.0, -5.0], [5.0, 5.0]), 0.25)
    lam = min_eigenvalue_of(op.matrix, rtol=1e-8, sigma=0.0)
    assert seen and all(n == op.n_sites and set(sizes) == {1} for n, sizes in seen)
    assert set(pools_at_two()) == {2}
    assert lam == pytest.approx(LANDAU_SIDE10, abs=5e-6)


def test_eigenpairs_independent_of_blas_pool_size(pools_at_two, monkeypatch):
    seen = []
    solve = lattice.lowest_pairs

    def spy(*args, **kwargs):
        seen.append(pools_at_two())
        return solve(*args, **kwargs)

    monkeypatch.setattr(lattice, "lowest_pairs", spy)
    op = assemble(ConstantField(plane_two_form(1.0)), axis_box([-3.0, -3.0], [3.0, 3.0]), 0.25)
    at_two = op.lowest_eigenvalues(k=2)
    for _, put in lattice._blas_pools():
        put(1)
    at_one = op.lowest_eigenvalues(k=2)
    assert len(seen) == 2 and all(set(sizes) == {1} for sizes in seen)
    assert all(np.array_equal(a, b) for a, b in zip(at_two, at_one))


class ProductCountingCSC(sp.csc_matrix):
    """Counts its products with vectors and blocks.  A complex one passes
    ``tocsc()`` and ``astype(complex, copy=False)`` as itself; the matrices
    derived from it (``abs``, ``A - s I``) count on their own."""

    products = 0

    def _matmul_vector(self, other):
        self.products += 1
        return super()._matmul_vector(other)

    def _matmul_multivector(self, other):
        self.products += 1
        return super()._matmul_multivector(other)


def test_one_sparse_product_per_inverse_iteration_step(monkeypatch):
    solves = []
    splu = spla.splu

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(rhs.shape)
            return self.lu.solve(rhs)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    monkeypatch.setattr(lattice, "spla", SimpleNamespace(
        splu=lambda *args, **kwargs: Factor(splu(*args, **kwargs)), norm=spla.norm))
    # The 48 x 48 Landau box at b = 1: 36 steps on 6 columns, one shift advance.
    op = assemble(ConstantField(plane_two_form(1.0)), axis_box([-4.8, -4.8], [4.8, 4.8]), 0.2)
    assert op.n_sites == 2304
    A = ProductCountingCSC(op.matrix.astype(complex))
    vals, _ = lowest_pairs(A, 4, rtol=1e-8, sigma=0.0)
    assert solves and A.products == len(solves)
    assert vals[0] == pytest.approx(0.9950445907, rel=1e-9)


def test_non_finite_solve_refactors_below_the_shift(monkeypatch):
    rng = np.random.default_rng(3)
    M = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    A = sp.csc_matrix(M + M.conj().T)
    shifts, solves = [], []

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(rhs.shape)  # the first solve overflows
            return np.full_like(rhs, np.inf) if len(solves) == 1 else self.lu.solve(rhs)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def splu(S, *args, **kwargs):
        shifts.append(float(np.mean((A.diagonal() - S.diagonal()).real)))
        return Factor(spla.splu(S, *args, **kwargs))

    monkeypatch.setattr(lattice, "spla", SimpleNamespace(splu=splu, norm=spla.norm))
    vals, _ = lowest_pairs(A, 3, rtol=1e-10, sigma=-40.0)
    # The overflowed first solve is redone on a factor just below the shift.
    assert shifts[:2] == pytest.approx([-40.0, -40.0 - 1e-6 * 41.0], abs=1e-12)
    assert vals == pytest.approx(np.linalg.eigvalsh(A.toarray())[:3], abs=1e-8)


def test_blas_threads_caps_and_restores(pools_at_two):
    with lattice.one_blas_thread():
        assert set(pools_at_two()) == {1}
        with lattice.one_blas_thread():
            assert set(pools_at_two()) == {1}
        assert set(pools_at_two()) == {1}
    assert set(pools_at_two()) == {2}


def test_blas_threads_without_pools_does_nothing(pools_at_two, monkeypatch):
    monkeypatch.setattr(lattice, "_blas_pools", lambda: [])
    with lattice.one_blas_thread():
        assert set(pools_at_two()) == {2}
    assert set(pools_at_two()) == {2}


def _symmetric_factor(A):
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def test_negative_pivots_count_eigenvalues_below_the_shift():
    rng = np.random.default_rng(3)
    n = 60
    M = (sp.random(n, n, density=0.08, random_state=rng)
         + 1j * sp.random(n, n, density=0.08, random_state=rng))
    H = (M + M.conj().T + sp.diags(rng.normal(size=n))).tocsc()
    exact = np.linalg.eigvalsh(H.toarray())
    identity = sp.identity(n, dtype=complex, format="csc")
    for shift in (-5.0, -1.0, 0.0, 0.5, 2.0):
        got = _negative_pivots(_symmetric_factor(H - shift * identity))
        assert got == np.sum(exact < shift)


def test_negative_pivots_refused_after_off_diagonal_pivot():
    lu = _symmetric_factor(sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert not np.array_equal(lu.perm_r, lu.perm_c)
    assert _negative_pivots(lu) is None


def test_shift_advances_keep_inertia_free_factors(monkeypatch):
    factors = []
    splu = lattice.spla.splu

    def recording_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        factors.append(lu)
        return lu

    monkeypatch.setattr(lattice.spla, "splu", recording_splu)
    op = assemble(ConstantField(plane_two_form(1.0)),
                  axis_box([-10.0, -10.0], [10.0, 10.0]), 0.25)
    assert op.n_sites == 6400
    vals, _ = op.lowest_eigenvalues(k=1)
    assert len(factors) == 4   # the zero shift and three accepted advances
    for lu in factors:
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert _negative_pivots(lu) == 0
    assert vals[0] == pytest.approx(0.9922075306392442, rel=1e-12)


def test_refused_shift_advance_keeps_the_factor(monkeypatch):
    op = assemble(ConstantField(plane_two_form(1.0)),
                  axis_box([-4.0, -4.0], [4.0, 4.0]), 0.25)
    assert op.n_sites == 1024
    expected, _ = lowest_pairs(op.matrix, 1, rtol=1e-8, sigma=0.0)
    calls = []
    splu = lattice.spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(lattice.spla, "splu", counting_splu)
    monkeypatch.setattr(lattice, "_negative_pivots", lambda lu: 1)
    vals, _ = lowest_pairs(op.matrix, 1, rtol=1e-8, sigma=0.0)
    # The zero shift and the refused candidate; no advance is tried after it.
    assert len(calls) == 2
    assert abs(vals[0] - expected[0]) < 1e-12


def test_singular_shift_retried_below(monkeypatch):
    errors = []
    splu = lattice.spla.splu

    def recording_splu(*args, **kwargs):
        try:
            return splu(*args, **kwargs)
        except RuntimeError as err:
            errors.append(err)
            raise

    monkeypatch.setattr(lattice.spla, "splu", recording_splu)
    A = sp.diags(np.arange(50.0)).tocsc().astype(complex)
    vals, _ = lowest_pairs(A, 1, rtol=1e-8, sigma=0.0)
    assert len(errors) == 1
    assert abs(vals[0]) < 1e-12


def _record_factors(monkeypatch, fails=lambda call: False):
    """Every factor ``lattice`` builds from now on, in order; a call whose
    index ``fails`` raises SuperLU's singular-matrix RuntimeError and is
    recorded as None."""
    factors, splu = [], lattice.spla.splu

    def recording_splu(*args, **kwargs):
        if fails(len(factors)):
            factors.append(None)
            raise RuntimeError("Factor is exactly singular")
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(lattice.spla, "splu", recording_splu)
    return factors


def _landau_box(side, h):
    return assemble(ConstantField(plane_two_form(1.0)),
                    axis_box([-side / 2, -side / 2], [side / 2, side / 2]), h)


def test_guess_below_the_spectrum_is_the_only_factor(monkeypatch):
    op = _landau_box(10.0, 0.25)
    assert op.n_sites == 1600
    factors = _record_factors(monkeypatch)
    vals, _ = op.lowest_eigenvalues(k=1, guess=DISCRETE_LANDAU)
    assert len(factors) == 1 and _negative_pivots(factors[0]) == 0
    exact = scipy.linalg.eigvalsh(op.matrix.toarray(), subset_by_index=(0, 0))
    bound = lattice.RESIDUAL_RTOL * spla.norm(op.matrix, np.inf)
    assert exact[0] - 1e-12 <= vals[0] <= exact[0] + bound


def test_guess_above_the_lowest_eigenvalue_is_refused(monkeypatch):
    # At h = 1 the lattice Landau bottom 1 - h^2/8 = 0.875 lies above
    # lambda_1 = 0.87478: the guess factor counts negative pivots.
    op = _landau_box(20.0, 1.0)
    factors = _record_factors(monkeypatch)
    expected = op.lowest_eigenvalues(k=1)
    unguessed = len(factors)
    got = op.lowest_eigenvalues(k=1, guess=0.875)
    assert got[0][0] < 0.875
    assert len(factors) == 2 * unguessed + 1 and _negative_pivots(factors[unguessed]) > 0
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))


@pytest.mark.parametrize("guess", [0.0, -1.0])
def test_guess_at_or_below_the_start_shift_changes_nothing(monkeypatch, guess):
    op = _landau_box(10.0, 0.25)
    factors = _record_factors(monkeypatch)
    expected = op.lowest_eigenvalues(k=2)
    unguessed = len(factors)
    got = op.lowest_eigenvalues(k=2, guess=guess)
    assert len(factors) == 2 * unguessed
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))


def test_unfactorable_guess_falls_back_to_the_start_shift(monkeypatch):
    op = _landau_box(10.0, 0.25)
    expected = op.lowest_eigenvalues(k=1)
    # The guess and its two retries below it fail; the solve then runs from 0.
    factors = _record_factors(monkeypatch, fails=lambda call: call < 3)
    got = op.lowest_eigenvalues(k=1, guess=DISCRETE_LANDAU)
    assert factors[:3] == [None] * 3 and all(lu is not None for lu in factors[3:])
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))


def test_unfactorable_shift_advance_is_refused(monkeypatch):
    op = _landau_box(8.0, 0.25)
    monkeypatch.setattr(lattice, "_negative_pivots", lambda lu: 1)
    refused, _ = lowest_pairs(op.matrix, 1, rtol=1e-8, sigma=0.0)
    monkeypatch.undo()
    # The zero shift factors; the advance candidate and both retries fail.
    factors = _record_factors(monkeypatch, fails=lambda call: call > 0)
    vals, _ = lowest_pairs(op.matrix, 1, rtol=1e-8, sigma=0.0)
    assert len(factors) == 4 and factors[1:] == [None] * 3
    assert np.array_equal(vals, refused)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.floats(0.5, 2.5), st.floats(0.25, 1.0), st.integers(6, 29), st.integers(1, 3))
@example(1.0, 0.25, 29, 2)    # guess kept: lambda_1 = 0.99834 > 0.99219
@example(2.5, 1.0, 17, 3)     # guess refused: lambda_1 = 1.41224 < 1.71875
def test_landau_check_matches_dense_whether_the_guess_is_kept_or_refused(b, h, cells, k):
    # At most 30 x 30 sites.  The guess b (1 - b h^2 / 8) is kept on fine
    # lattices and refused on coarse ones, where lambda_1 lies below it.
    from confinement_lab import cli

    spec = {"task": "landau-check", "params": {"b": b, "side": cells * h, "h": h, "k": k}}
    payload, _, _, op = cli.TASKS["landau-check"].runner(cli._validate(spec), 0)
    assert op.n_sites <= 900
    exact = np.linalg.eigvalsh(op.matrix.toarray())[:k]
    scale = max(1.0, spla.norm(op.matrix, np.inf))
    bound = lattice.RESIDUAL_RTOL * scale
    vals = np.array(payload["eigenvalues"])
    event("guess kept" if exact[0] > b * (1.0 - b * h * h / 8.0) else "guess refused")
    # Ritz values bound the eigenvalues from above, and each reported value
    # lies within the residual bound of the eigenvalue of its own index: a
    # lambda_2 reported for lambda_1 fails this whenever the two differ by
    # more than the bound.
    assert np.all(vals >= exact - 1e-12 * scale) and np.all(vals <= exact + bound)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_real_matrices_match_dense_oracle(n):
    # The block is as wide as the matrix; a real matrix is solved as complex.
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n, n))
    M = M + M.T
    exact = np.linalg.eigvalsh(M)
    vals, _ = lowest_pairs(sp.csr_matrix(M), n, rtol=1e-10)
    np.testing.assert_allclose(vals, exact, rtol=1e-10, atol=1e-12)
    assert min_eigenvalue_of(sp.csr_matrix(M), rtol=1e-10) == pytest.approx(
        exact[0], rel=1e-10, abs=1e-12)


def test_factor_errors_other_than_singularity_propagate(monkeypatch):
    def failing_splu(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(lattice.spla, "splu", failing_splu)
    with pytest.raises(MemoryError):
        lowest_pairs(sp.diags(np.arange(1.0, 51.0)).tocsc(), 1, rtol=1e-8, sigma=0.0)


def test_k_range_validated():
    op = assemble(ConstantField(plane_two_form(1.0)), unit_square(), 0.25)
    with pytest.raises(ValidationError):
        op.lowest_eigenvalues(k=0)
    with pytest.raises(ValidationError):
        op.lowest_eigenvalues(k=16)


def test_indefinite_engine_matches_dense():
    op = assemble(ConstantField(plane_two_form(1.0)),
                  axis_box([-2.0, -2.0], [2.0, 2.0]), 0.25)
    w = 3.0 + np.sin(op.grid.sites[:, 0] * 5.0)
    A = (op.matrix - sp.diags(w)).tocsc()
    exact = np.linalg.eigvalsh(A.toarray())[0]
    assert exact < 0
    got = min_eigenvalue_of(A, rtol=1e-8)
    assert got == pytest.approx(exact, abs=1e-6)
    assert gershgorin_lower_bound(A) <= exact


def test_both_eigensolvers_residual_check_lowest_pairs(monkeypatch):
    op = assemble(ConstantField(plane_two_form(1.0)), unit_square(), 0.25)
    n = op.n_sites
    # A pair that is no eigenpair: (0, e_1) leaves the residual |H e_1|.
    monkeypatch.setattr(lattice, "lowest_pairs",
                        lambda A, k, **kw: (np.zeros(1), np.eye(n, 1, dtype=complex)))
    with pytest.raises(SolverError, match="exceeds 1e-08"):
        op.lowest_eigenvalues(k=1)
    with pytest.raises(SolverError, match="exceeds 1e-06"):
        min_eigenvalue_of(op.matrix.tocsc(), rtol=1e-6)


def test_every_eigensolve_trims_the_heap_once(monkeypatch):
    trims = []
    monkeypatch.setattr(lattice, "_malloc_trim", lambda: trims.append)
    op = assemble(ConstantField(plane_two_form(1.0)), unit_square(), 0.25)
    op.lowest_eigenvalues(k=2)
    assert trims == [0]
    min_eigenvalue_of(op.matrix.tocsc())
    assert trims == [0, 0]

    def stall(A, k, **kw):
        raise SolverError("stalled")

    monkeypatch.setattr(lattice, "lowest_pairs", stall)
    with pytest.raises(SolverError, match="stalled"):
        op.lowest_eigenvalues(k=1)
    with pytest.raises(SolverError, match="stalled"):
        min_eigenvalue_of(op.matrix.tocsc())
    assert trims == [0] * 4
    # A pair that fails the residual check is trimmed too.
    monkeypatch.setattr(lattice, "lowest_pairs",
                        lambda A, k, **kw: (np.zeros(1), np.eye(op.n_sites, 1, dtype=complex)))
    with pytest.raises(SolverError, match="exceeds"):
        op.lowest_eigenvalues(k=1)
    assert trims == [0] * 5


def test_eigenpairs_identical_without_heap_trim(monkeypatch):
    op = assemble(ConstantField(plane_two_form(1.0)), axis_box([-3.0, -3.0], [3.0, 3.0]), 0.25)
    shifted = (op.matrix - sp.diags(np.linspace(0.0, 20.0, op.n_sites))).tocsc()
    trimmed = (*op.lowest_eigenvalues(k=2), min_eigenvalue_of(shifted))
    monkeypatch.setattr(lattice, "_malloc_trim", lambda: None)
    untrimmed = (*op.lowest_eigenvalues(k=2), min_eigenvalue_of(shifted))
    assert all(np.array_equal(a, b) for a, b in zip(trimmed, untrimmed))


def test_heap_trim_lowers_the_disk_probe_peak_rss():
    import os
    import subprocess
    import sys

    if lattice._malloc_trim() is None:
        pytest.skip("the C library has no malloc_trim")
    # Peak RSS of a fresh process running the disk probe's two finest rows,
    # with the trim and with it disabled.  Without it, the field column's
    # freed work arrays stay resident under the hardy column's factor.  The
    # peak is VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts at
    # the spawning process's peak, here the test runner's.
    code = (
        "import sys\n"
        "from confinement_lab import lattice\n"
        "from confinement_lab.domains import Disk2D\n"
        "from confinement_lab.fields import DiskCounterexampleField\n"
        "if sys.argv[1] == 'off':\n"
        "    lattice._malloc_trim = lambda: None\n"
        "lattice.hur_hypothesis_probe(DiskCounterexampleField(0.3), Disk2D(1.0),\n"
        "                             deltas=(0.05, 0.025))\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lattice.__file__)))
    peak_kb = {mode: int(subprocess.run([sys.executable, "-c", code, mode], env=env,
                                        capture_output=True, text=True,
                                        check=True).stdout)
               for mode in ("on", "off")}
    assert peak_kb["off"] - peak_kb["on"] >= 8 * 1024, peak_kb


def test_matrix_market_round_trip(tmp_path):
    op = assemble(ConstantField(plane_two_form(1.0)), unit_square(), 0.25)
    path = tmp_path / "op.mtx"
    op.to_matrix_market(path)
    back = scipy.io.mmread(str(path))
    assert abs(back.tocsr() - op.matrix).max() < 1e-15


# ---------------------------------------------------------------------------
# commutator-bound pieces


def test_paired_expectation_constant_field():
    box = axis_box([-4.0, -4.0], [4.0, 4.0])
    f = ConstantField(plane_two_form(2.0))
    op = assemble(f, box, 0.25)
    rng = np.random.default_rng(3)
    u = rng.normal(size=op.n_sites) + 1j * rng.normal(size=op.n_sites)
    assert paired_component_expectation(op, f, u) == pytest.approx(
        2.0 * op.norm_sq(u), rel=1e-12
    )
    rows = commutator_bound_test(f, box, 0.25, K=0.1, n_random=1, n_eigenvectors=0)
    trials = _trial_vectors(op, 1, 5, 0)
    assert len(rows) == len(trials) == 2
    for row, (_, v) in zip(rows, trials):
        assert row["weighted_norm_sq"] == pytest.approx(5.0 * op.norm_sq(v), rel=1e-12)


def test_slack_decomposition():
    box = axis_box([-4.0, -4.0], [4.0, 4.0])
    f = ConstantField(plane_two_form(1.0))
    op = assemble(f, box, 0.25)
    rows = commutator_bound_test(f, box, 0.25, K=0.1, n_random=1, n_eigenvectors=0)
    trials = _trial_vectors(op, 1, 5, 0)
    assert len(rows) == len(trials) == 2
    for row, (_, u) in zip(rows, trials):
        # |B|_sp = 1, so the weighted norm is 2 |u|^2
        manual = (op.quadratic_form(u)
                  + 0.1 * op.grid.h * 2.0 * op.norm_sq(u)
                  - paired_component_expectation(op, f, u))
        assert row["slack"] == pytest.approx(manual, rel=1e-12)


def test_calibrated_constant_and_slack_nonnegative():
    box = axis_box([-4.0, -4.0], [4.0, 4.0])
    K, rates = calibrate_form_constant(box, 0.4,
                                       lambda b: ConstantField(plane_two_form(b)))
    assert K == pytest.approx(0.088443, abs=1e-4)
    assert rates[3.0] > rates[1.0]
    sq = rotated_unit_square()
    cases = [
        (ConstantField(plane_two_form(1.0)), box, 0.2, 0.0),
        (DiskCounterexampleField(0.3), Disk2D(1.0), 0.05, 0.2),
        (PolytopeField(sq), sq, 0.02, 0.0),
    ]
    for fld, dom, h, delta in cases:
        rows = commutator_bound_test(fld, dom, h, K=K, delta=delta,
                                     n_random=5)
        assert all(r["slack"] >= 0.0 for r in rows)


def test_lemma_slack_evaluates_the_field_once_per_operator(monkeypatch):
    sq = rotated_unit_square()
    fld = PolytopeField(sq)
    calls = []
    evaluate = PolytopeField.field_matrix_batch
    monkeypatch.setattr(PolytopeField, "field_matrix_batch",
                        lambda *a, **kw: calls.append(1) or evaluate(*a, **kw))
    rows = commutator_bound_test(fld, sq, 0.05, K=0.09, n_random=3)
    assert len(calls) == 1
    calls.clear()
    calibrate_form_constant(sq, 0.1, lambda b: PolytopeField(sq))
    assert len(calls) == 2
    # The rows are bit-identical to terms built from a fresh field evaluation.
    op = assemble(fld, sq, 0.05)
    norms = norm_sp_batch(fld.field_matrix_batch(op.grid.sites, domain=sq))
    expected = []
    for name, u in _trial_vectors(op, 3, 5, 2):
        form, paired = op.quadratic_form(u), paired_component_expectation(op, fld, u)
        weighted = lattice._weighted(op, norms, u)
        slack = form + 0.09 * op.grid.h * weighted - paired
        expected.append({"trial": name, "h": 0.05, "slack": slack, "form": form,
                         "paired": paired, "weighted_norm_sq": weighted})
    assert rows == expected


def test_ground_state_deficit_order():
    box = axis_box([-4.0, -4.0], [4.0, 4.0])
    f = ConstantField(plane_two_form(1.0))
    d_coarse = ground_state_deficit(f, box, 0.4)
    d_fine = ground_state_deficit(f, box, 0.2)
    assert d_coarse == pytest.approx(0.0182340, abs=1e-5)
    assert d_fine > 0
    assert d_coarse / d_fine > 2.0


# ---------------------------------------------------------------------------
# truncated-domain probe


def test_probe_columns_and_monotone_hardy():
    rows = hur_hypothesis_probe(DiskCounterexampleField(0.3), Disk2D(1.0),
                                deltas=(0.1, 0.05))
    assert [r["delta"] for r in rows] == [0.1, 0.05]
    assert rows[0]["h"] == pytest.approx(0.04)
    assert rows[1]["n_sites"] > rows[0]["n_sites"]
    assert rows[1]["lambda_min_hardy"] < rows[0]["lambda_min_hardy"]
    assert rows[0]["lambda_min_field"] > rows[0]["lambda_min_hardy"]
    assert rows[0]["hardy_scaled"] == pytest.approx(
        rows[0]["lambda_min_hardy"] * 0.01
    )


def test_probe_frozen_disk_values():
    rows = hur_hypothesis_probe(DiskCounterexampleField(0.3), Disk2D(1.0),
                                deltas=(0.1,))
    assert rows[0]["lambda_min_hardy"] == pytest.approx(3.18051, abs=2e-3)
    assert rows[0]["lambda_min_field"] == pytest.approx(5.72138, abs=2e-3)


def test_probe_custom_h_rule():
    rows = hur_hypothesis_probe(DiskCounterexampleField(0.3), Disk2D(1.0),
                                deltas=(0.1,), h_divisor=4.0)
    assert rows[0]["h"] == pytest.approx(0.025)


def test_probe_eps_validated():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValidationError):
            hur_hypothesis_probe(DiskCounterexampleField(0.3), Disk2D(1.0),
                                 eps=bad, deltas=(0.1,))
