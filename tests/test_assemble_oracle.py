"""Randomized oracle for ``lattice.assemble``: the sparsity pattern against a
k-d tree of the grid coordinates, exact Hermiticity, the diagonal and
nonnegativity, on boxes, disks, annuli and balls with random constant fields."""

import math

import numpy as np
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from confinement_lab.domains import Annulus2D, Ball3D, Disk2D, axis_box
from confinement_lab.errors import ValidationError
from confinement_lab.fields import ConstantField
from confinement_lab.lattice import assemble, build_grid


@st.composite
def domains(draw):
    """(domain, volume) for a random box in d = 2 or 3, disk, annulus or ball."""
    side = st.floats(0.5, 3.0)
    kind = draw(st.sampled_from(["box2", "box3", "disk", "annulus", "ball"]))
    if kind in ("box2", "box3"):
        d = 2 if kind == "box2" else 3
        lo = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(d)])
        sides = np.array([draw(side) for _ in range(d)])
        return axis_box(lo, lo + sides), float(np.prod(sides))
    r = draw(side)
    if kind == "disk":
        return Disk2D(r), math.pi * r * r
    if kind == "ball":
        return Ball3D(r), 4.0 / 3.0 * math.pi * r**3
    r_in = draw(st.floats(0.2, 0.8)) * r
    return Annulus2D(r_in, r), math.pi * (r * r - r_in * r_in)


def constant_field(dim, entries):
    b = np.zeros((dim, dim))
    iu = np.triu_indices(dim, k=1)
    b[iu] = entries[: len(iu[0])]
    return ConstantField(b - b.T)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(domains(), st.integers(40, 1200), st.booleans(), st.floats(2.05, 3.0),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_assemble_matches_neighbour_oracle(dom_vol, n_target, truncate, depth_cells, b):
    dom, volume = dom_vol
    d = dom.dim
    h = (volume / n_target) ** (1.0 / d)
    delta = depth_cells * h if truncate else 0.0
    try:
        n = build_grid(dom, h, delta=delta).n_sites
    except ValidationError:  # nothing survives the truncation
        n = 0
    assume(20 <= n <= 1500)

    op = assemble(constant_field(d, b), dom, h, delta=delta)
    H = op.matrix
    coords = op.grid.coords
    pairs = cKDTree(coords).query_pairs(r=1, p=1)
    upper = H.tocoo()
    pattern = {(int(i), int(j)) for i, j in zip(upper.row, upper.col) if i < j}
    assert pattern == pairs
    assert (H != H.conj().T).nnz == 0

    degree = np.bincount(np.array(sorted(pairs)).reshape(-1), minlength=n)
    diag = H.diagonal()
    bulk = 2.0 * d / h**2
    assert np.all(diag.imag == 0.0)
    assert np.all(diag.real[degree == 2 * d] == bulk)
    assert np.all(diag.real >= bulk)

    lam = scipy.linalg.eigvalsh(H.toarray(), subset_by_index=(0, 0))[0]
    assert lam >= -1e-10 * abs(H).sum(axis=1).max()
