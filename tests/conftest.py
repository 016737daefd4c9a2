"""Shared fixtures: small deterministic graphs used across the test suite."""

import multiprocessing
import os
import tempfile
from multiprocessing import resource_tracker

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


def _pipe_and_socket_fds() -> set:
    """``(fd, target)`` of this process's open pipes and sockets."""
    if not os.path.isdir("/proc/self/fd"):
        return set()
    fds = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed since the listing (the listing's own fd)
            continue
        if target.startswith(("pipe:", "socket:")):
            fds.add((int(fd), target))
    return fds


def _temp_dirs() -> set:
    """The library's ``cgraph-*`` temporary directories."""
    root = tempfile.gettempdir()
    return {n for n in os.listdir(root) if n.startswith("cgraph-")}


@pytest.fixture(scope="module", autouse=True)
def no_leaked_pool_state():
    """Suite-wide leak guard: no ``/dev/shm/cgp*`` segment, ``repro-pool-*``
    worker, pipe or socket fd, or ``cgraph-*`` temporary directory a test
    module opens may outlive the module."""
    # The stdlib's resource tracker holds one pipe for the process's whole
    # life; start it first so its fd is not blamed on the first pool module.
    resource_tracker.ensure_running()
    segments = _pool_segments()
    children = {p.pid for p in multiprocessing.active_children()}
    fds = _pipe_and_socket_fds()
    temp_dirs = _temp_dirs()
    yield
    leaked_workers = [
        p.name
        for p in multiprocessing.active_children()
        if p.pid not in children and p.name.startswith("repro-pool-")
    ]
    assert not leaked_workers, f"pool workers outlived the module: {leaked_workers}"
    leaked_segments = sorted(_pool_segments() - segments)
    assert not leaked_segments, f"shm segments outlived the module: {leaked_segments}"
    leaked_fds = sorted(_pipe_and_socket_fds() - fds)
    assert not leaked_fds, f"pipe/socket fds outlived the module: {leaked_fds}"
    leaked_dirs = sorted(_temp_dirs() - temp_dirs)
    assert not leaked_dirs, f"temp dirs outlived the module: {leaked_dirs}"


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
