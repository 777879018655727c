"""Shared graph populations.

Exhaustive enumeration through n = 4, seeded samples of 500 graphs each for
n = 5 and n = 6.  Session scope so the expensive lists are built once.
"""

import pytest

from mixedrandic import population, sample_mixed_graphs


@pytest.fixture(scope="session")
def exhaustive_population():
    graphs = []
    for n in (2, 3, 4):
        graphs.extend(population(n))
    return graphs


@pytest.fixture(scope="session")
def sampled_population():
    return population(5) + population(6)


@pytest.fixture(scope="session")
def full_population(exhaustive_population, sampled_population):
    return exhaustive_population + sampled_population


@pytest.fixture(scope="session")
def population_through_5(exhaustive_population):
    return exhaustive_population + population(5)


@pytest.fixture(scope="session")
def graphs_with_deletions():
    """Every n <= 3 graph without an isolated vertex and seeded n = 5, 6
    samples, each with the edges whose deletion isolates no vertex."""
    graphs = population(2) + population(3)
    graphs += sample_mixed_graphs(5, 60, seed=11) + sample_mixed_graphs(6, 60, seed=12)
    out = []
    for g in graphs:
        d = g.degrees()
        out.append((g, [e for e in g.edges if d[e.u - 1] > 1 and d[e.v - 1] > 1]))
    return out
