"""Shared fixtures: small deterministic graphs used across the test suite."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.graph import (
    EdgeList,
    erdos_renyi,
    grid_graph,
    path_graph,
    rmat_edges,
    star_graph,
)


def _pool_segments() -> set:
    """Names of the pool backend's live shared-memory segments."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith("cgp")}


@pytest.fixture(scope="module", autouse=True)
def no_leaked_pool_state():
    """Suite-wide leak guard: no ``/dev/shm/cgp*`` segment and no
    ``repro-pool-*`` worker a test module starts may outlive the module."""
    segments = _pool_segments()
    children = {p.pid for p in multiprocessing.active_children()}
    yield
    leaked_workers = [
        p.name
        for p in multiprocessing.active_children()
        if p.pid not in children and p.name.startswith("repro-pool-")
    ]
    assert not leaked_workers, f"pool workers outlived the module: {leaked_workers}"
    leaked_segments = sorted(_pool_segments() - segments)
    assert not leaked_segments, f"shm segments outlived the module: {leaked_segments}"


@pytest.fixture
def tiny_graph() -> EdgeList:
    """The 10-vertex example of the paper's Figure 6 family: two partitions
    of 5 vertices each, edges crossing the boundary."""
    pairs = [
        (0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
        (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
        (9, 0), (2, 7), (5, 1), (6, 3),
    ]
    return EdgeList.from_pairs(pairs, num_vertices=10)


@pytest.fixture
def small_rmat() -> EdgeList:
    """A 256-vertex R-MAT graph, deduplicated, no self loops."""
    return rmat_edges(8, 3000, seed=7).remove_self_loops().deduplicate()


@pytest.fixture
def medium_rmat() -> EdgeList:
    """A 1024-vertex R-MAT graph for cross-module integration tests."""
    return rmat_edges(10, 12000, seed=11).remove_self_loops().deduplicate()


@pytest.fixture
def small_er() -> EdgeList:
    return erdos_renyi(200, 1200, seed=3).remove_self_loops().deduplicate()


@pytest.fixture
def line10() -> EdgeList:
    return path_graph(10, directed=True)


@pytest.fixture
def star20() -> EdgeList:
    return star_graph(20)


@pytest.fixture
def grid_5x5() -> EdgeList:
    return grid_graph(5, 5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
