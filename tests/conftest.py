import pytest
from hypothesis import settings

from loopreg import oracle

# every property of the suite draws the same examples on every run and host: derandomized, with no deadline and no
# example database; each test sets only its max_examples
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def integrations(monkeypatch):
    """Radial pieces integrated since the fixture cleared the oracle's caches, counted where they are
    integrated: the decade sums' pieces and each cutoff's short piece alike."""
    for cache in (oracle._decade_sums, oracle._integral_to):
        cache.cache_clear()
    count, radial_piece = [0], oracle._radial_piece

    def counted(*args):
        count[0] += 1
        return radial_piece(*args)

    monkeypatch.setattr(oracle, "_radial_piece", counted)
    return lambda: count[0]
