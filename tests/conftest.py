"""Shared fixtures: named small graphs, seeded random graph samplers, and the
session-wide certificate registry behind the global soundness criterion."""

from __future__ import annotations

import random

import pytest

from madcycle.graph import Graph, build_graph, is_biconnected, is_connected


def complete(n: int) -> Graph:
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def cycle_graph(n: int) -> Graph:
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def path_graph(n: int) -> Graph:
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph([(i, a + j) for i in range(a) for j in range(b)], a + b)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(outer + spokes + inner, 10)


def bowtie() -> Graph:
    return build_graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], 5)


def glued_k5s() -> Graph:
    """Two K5s sharing the vertex pair {3, 4}."""
    a = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    b = [(i, j) for i in range(3, 8) for j in range(i + 1, 8)]
    return build_graph(a + b, 8)


def complete_minus_matching(n: int) -> Graph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (j == i + 1 and i % 2 == 0)
    ]
    return build_graph(edges, n)


def split_graph(a: int, b: int) -> Graph:
    """Clique of size a joined completely to an independent set of size b."""
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges += [(i, a + j) for i in range(a) for j in range(b)]
    return build_graph(edges, a + b)


def random_graph(rng: random.Random, n: int, prob: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
    return build_graph(edges, n)


def random_connected_graph(rng: random.Random, n: int, prob: float) -> Graph:
    for _ in range(4000):
        g = random_graph(rng, n, prob)
        if g.n >= 2 and g.m >= 1 and is_connected(g):
            return g
    raise RuntimeError("could not sample a connected graph")


def random_2connected_graph(rng: random.Random, n: int, prob: float) -> Graph:
    for _ in range(4000):
        g = random_graph(rng, n, prob)
        if is_biconnected(g):
            return g
    raise RuntimeError("could not sample a 2-connected graph")


def random_block_tree(rng: random.Random, pieces: int) -> Graph:
    """A connected graph grown from one vertex by gluing `pieces` random
    pieces at existing vertices: bridges, pendant paths, and cycles of 3-6
    vertices with random chords. Labels are shuffled; pieces = 0 gives K1."""
    edges, n = [], 1
    for _ in range(pieces):
        at, kind = rng.randrange(n), rng.random()
        if kind < 0.25:
            edges.append((at, n))
            n += 1
        elif kind < 0.45:
            prev = at
            for _ in range(rng.randint(2, 4)):
                edges.append((prev, n))
                prev, n = n, n + 1
        else:
            size = rng.randint(3, 6)
            vs = [at] + list(range(n, n + size - 1))
            n += size - 1
            edges += [(vs[i], vs[(i + 1) % size]) for i in range(size)]
            edges += [
                (a, b) for i, a in enumerate(vs) for b in vs[i + 2 :]
                if rng.random() < 0.3
            ]
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph([(perm[u], perm[v]) for u, v in edges], n)


@pytest.fixture(scope="session")
def certificate_registry():
    """(graph, certificate) pairs collected by the acceptance criteria."""
    return []
