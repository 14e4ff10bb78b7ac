import pytest

from confinement_lab import lattice


@pytest.fixture
def pools_at_two():
    """Set the bundled OpenBLAS pools to 2 threads for the test, so that a
    cap to 1 shows on any host; yields a reader of their sizes."""
    pools = lattice._blas_pools()
    if not pools:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    saved = [get() for get, _ in pools]
    for _, put in pools:
        put(2)
    yield lambda: [get() for get, _ in pools]
    for (_, put), size in zip(pools, saved):
        put(size)
