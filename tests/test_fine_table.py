"""The fine coefficient table and the Eulerian checks read off it, against the
brute-force link sums and subset walks of oracles.py."""

import random

import pytest

from scx import (
    boundary_simplex,
    classify,
    cross_polytope,
    fine_e_polynomial,
    from_facets,
    full_simplex,
    is_eulerian,
    is_eulerian_sphere,
    random_complex,
    whiskered_cycle,
)
from oracles import eulerian_by_link_sums, eulerian_sphere_by_link_sums, fine_terms_by_submask_walk


def _families():
    out = [cross_polytope(d) for d in range(1, 7)]
    out += [boundary_simplex(d) for d in range(1, 9)]
    out += [full_simplex(d) for d in range(1, 9)]
    out += [whiskered_cycle(n, k) for n in (3, 4, 6) for k in (0, 1, 2)]
    out.append(cross_polytope(2).join(boundary_simplex(2)))
    out.append(boundary_simplex(3).suspension())
    return out


def _random():
    # facets of one size give pure complexes; random_complex mixes sizes
    out = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        size = rng.randint(1, min(n, 5))
        out.append(from_facets([rng.sample(range(1, n + 1), size)
                                for _ in range(rng.randint(1, 12))]))
        out.append(random_complex(seed, n, rng.randint(1, 12), size))
    return out


@pytest.fixture(scope="module")
def sample(corpus5):
    return corpus5 + _families() + _random()


def test_is_eulerian_matches_link_sums(sample):
    for c in sample:
        v = is_eulerian(c)
        assert (v.ok, v.witness) == eulerian_by_link_sums(c), c


def test_is_eulerian_sphere_matches_link_sums(sample):
    for c in sample:
        v = is_eulerian_sphere(c)
        assert (v.ok, v.witness) == eulerian_sphere_by_link_sums(c), c


def test_fine_table_matches_submask_walk(sample):
    for c in sample:
        assert fine_e_polynomial(c).sorted_terms() == fine_terms_by_submask_walk(c), c


def test_sample_reaches_both_verdicts(sample):
    verdicts = [eulerian_by_link_sums(c) for c in sample]
    witnesses = {w.split(":")[0].split("{")[0] for ok, w in verdicts if not ok}
    assert any(ok for ok, _ in verdicts)
    assert {"not pure", "face "} <= witnesses
    assert any(eulerian_by_link_sums(c)[0] and not eulerian_sphere_by_link_sums(c)[0]
               for c in sample)


def test_classify_runs_the_eulerian_test_once(monkeypatch):
    import scx.properties as properties

    calls = []
    real = properties.is_eulerian

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(properties, "is_eulerian", counting)
    for c in (cross_polytope(3), full_simplex(2), whiskered_cycle(4, 1), from_facets([[1], [2], [3]])):
        calls.clear()
        report = classify(c)
        assert len(calls) == 1
        assert (report.eulerian, report.eulerian_sphere) == (
            eulerian_by_link_sums(c)[0], eulerian_sphere_by_link_sums(c)[0])
