import pytest
from hypothesis import HealthCheck, settings

from orbifusion import catalog

from .oracles import su3_ring, unvalidated

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# the catalog builds its alcove entries through the tests' ring cache, so
# each level is built once per session, at collection time included,
# however many tests build or run its entry
catalog.su3_ring = su3_ring


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run both associativity scans once, outside any timed assertion: the
    sparse one imports scipy. Fills the tests' ring cache at level 3. The
    dense scan runs on a copy, since su3_ring's mark would skip it."""
    from orbifusion import kernels, validate_ring

    ring = su3_ring(3)
    validate_ring(unvalidated(ring))
    ptr, idx, val = ring.csr()
    # the scan is a generator: drain it so that its blocks are computed
    list(kernels._assoc_gen(ptr, idx, val, ring.size, 1, 20, kernels._pair_matrix(ptr, idx, val, ring.size)))
    yield
