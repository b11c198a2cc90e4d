import pytest
from hypothesis import settings

from scx import enumerate_all_complexes, random_complex

# property tests draw the same examples on every run and leave no database behind
settings.register_profile("scx", derandomize=True, database=None, deadline=None)
settings.load_profile("scx")


@pytest.fixture(scope="session")
def corpus3():
    return list(enumerate_all_complexes(3))


@pytest.fixture(scope="session")
def corpus4():
    return list(enumerate_all_complexes(4))


@pytest.fixture(scope="session")
def corpus5():
    return list(enumerate_all_complexes(5))


@pytest.fixture(scope="session")
def random_corpus():
    """1000 seeded complexes on up to 10 vertices."""
    out = []
    for seed in range(1000):
        n = seed % 10 + 1
        out.append(random_complex(
            seed, n,
            facet_count=seed % 7 + 1,
            max_facet_size=min(n, seed % 5 + 1),
        ))
    return out
