import pytest

from loopreg import oracle


@pytest.fixture
def integrations():
    """Radial pieces integrated since the fixture cleared the oracle's caches:
    the decade sums' misses and the top pieces' misses alike."""
    caches = (oracle._decade_sums, oracle._piece)
    for cache in caches:
        cache.cache_clear()
    return lambda: sum(cache.cache_info().misses for cache in caches)
