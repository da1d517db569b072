import pytest
from hypothesis import HealthCheck, settings

from orbifusion import catalog

from .oracles import su3_ring

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
    """Import scipy and fill the tests' ring cache once, outside any timed assertion."""
    from orbifusion import validate_ring

    validate_ring(su3_ring(3))
    yield
