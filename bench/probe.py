"""A reference computation timed between jobs, to follow the host's speed.

On a shared host the speed of a core drifts by tens of percent over minutes,
as other tenants come and go.  Runs of the same code made minutes apart then
disagree by more than any statistic within one run can remove.  So before
every job a run times ``sparse_lu``, a fixed computation, and scales its
end-to-end times by ``REFERENCE_S / median probe time``.  They read as wall
seconds on a host running at the speed at which the probe takes REFERENCE_S;
the raw wall times are printed next to them.

The probe calls none of the program's code, so a change to the program does
not move it.  It factors a fixed 2D Laplacian with SuperLU and solves with
it, the kind of work the lattice jobs do.  A Python-level probe (Nelder-Mead
and an ODE solve, like the verdict jobs) was tried for the verdicts
workload and dropped: it swings with the host's fast and slow spells by more
than the jobs do, so scaling by it made the spread of runs wider, not
narrower.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_N = 70
_T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (_N, _N))
_LAPLACIAN = (sp.kron(sp.eye(_N), _T) + sp.kron(_T, sp.eye(_N))).tocsc()
_RHS = np.ones(_N * _N)

# Median of sparse_lu on the host that defined the benchmark (see README).
# Fixed: changing it rescales every recorded time.
REFERENCE_S = 0.0230


def sparse_lu():
    """Seconds to factor the 4900-site Laplacian and solve with it 5 times."""
    started = time.perf_counter()
    lu = spla.splu(_LAPLACIAN)
    for _ in range(5):
        lu.solve(_RHS)
    return time.perf_counter() - started
