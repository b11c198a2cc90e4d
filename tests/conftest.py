import pytest
from hypothesis import settings

from scx import cycle, enumerate_all_complexes, random_complex, whiskered_cycle
from oracles import flag_sphere_by_edge_subdivisions

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


@pytest.fixture(scope="session")
def sparse():
    """Complexes with many vertices and few faces each: a 2,000-cycle, a cycle
    with 500 whiskers on one vertex, and a seeded flag 2-sphere on 300 vertices."""
    return [cycle(2000), whiskered_cycle(500, 500), flag_sphere_by_edge_subdivisions(1, 294)]
