import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Import scipy and fill the ring cache once, outside any timed assertion."""
    from orbifusion import validate_ring
    from orbifusion.su3 import su3_ring

    validate_ring(su3_ring(3))
    yield
