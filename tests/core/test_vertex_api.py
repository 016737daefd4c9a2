"""Tests for the vertex-centric (Pregel) model — including the paper's claim
that the partition-centric model needs fewer supersteps for traversals."""

import numpy as np
import pytest

from repro.baselines.oracle import oracle_bfs_levels, oracle_khop_reach
from repro.core.api import run_program
from repro.core.vertex_api import (
    VertexCentricProgram,
    VertexContext,
    run_vertex_centric,
)
from repro.graph import EdgeList, path_graph
from repro.runtime.session import GraphSession


class BFSVertexProgram(VertexCentricProgram):
    """Classic Pregel BFS: value = hop distance (-1 unreached)."""

    def __init__(self, source: int, k: int | None = None):
        self.source = source
        self.k = k

    def initial_value(self, vertex, num_vertices):
        return 0.0 if vertex == self.source else -1.0

    def is_initially_active(self, vertex):
        return vertex == self.source

    def compute(self, ctx: VertexContext, messages):
        if ctx.superstep == 0 and ctx.vertex == self.source:
            ctx.send_message_to_all_neighbors(1.0)
        elif messages:
            depth = min(messages)
            if ctx.get_value() < 0:
                ctx.set_value(depth)
                if self.k is None or depth < self.k:
                    ctx.send_message_to_all_neighbors(depth + 1)
        ctx.vote_to_halt()


class MaxValueProgram(VertexCentricProgram):
    """Pregel's canonical example: propagate the maximum value."""

    def initial_value(self, vertex, num_vertices):
        return float(vertex)

    def compute(self, ctx: VertexContext, messages):
        new = max([ctx.get_value()] + list(messages))
        if new > ctx.get_value() or ctx.superstep == 0:
            ctx.set_value(new)
            ctx.send_message_to_all_neighbors(new)
        ctx.vote_to_halt()


class TestBFSVertexProgram:
    @pytest.mark.parametrize("machines", [1, 3])
    def test_levels_match_oracle(self, small_rmat, machines):
        values, _ = run_vertex_centric(
            GraphSession(small_rmat, num_machines=machines), BFSVertexProgram(0),
            max_supersteps=100,
        )
        theirs = oracle_bfs_levels(small_rmat, 0)
        assert (values.astype(int) == theirs).all()

    def test_khop_budget(self, small_rmat):
        k = 2
        values, _ = run_vertex_centric(
            GraphSession(small_rmat), BFSVertexProgram(7, k=k), max_supersteps=50
        )
        reached = set(np.nonzero(values >= 0)[0].tolist())
        assert reached == oracle_khop_reach(small_rmat, 7, k)

    def test_path_superstep_count(self):
        el = path_graph(10, directed=True)
        values, result = run_vertex_centric(
            GraphSession(el, num_machines=2), BFSVertexProgram(0), max_supersteps=50
        )
        # vertex-centric: one hop per superstep -> ~path length supersteps
        assert result.supersteps >= 10
        assert values.astype(int).tolist() == list(range(10))

    def test_star(self, star20):
        values, _ = run_vertex_centric(GraphSession(star20), BFSVertexProgram(0),
                                       max_supersteps=10)
        assert values[0] == 0
        assert (values[1:] == 1).all()


class TestMaxValue:
    def test_converges_to_global_max_on_connected_graph(self, grid_5x5):
        values, _ = run_vertex_centric(
            GraphSession(grid_5x5, num_machines=3), MaxValueProgram(),
            max_supersteps=100,
        )
        assert (values == 24).all()

    def test_per_component_max(self):
        el = EdgeList.from_pairs(
            [(0, 1), (1, 0), (2, 3), (3, 2)], num_vertices=4
        )
        values, _ = run_vertex_centric(
            GraphSession(el), MaxValueProgram(), max_supersteps=20
        )
        assert values.tolist() == [1, 1, 3, 3]


class TestModelComparison:
    def test_partition_centric_needs_fewer_supersteps(self):
        """§3.3: the partition-centric model 'generally requires fewer
        supersteps to converge' — the partition program drains its whole
        local chain within one superstep, the vertex program pays one
        superstep per hop.  A 40-vertex path over 2 partitions makes the
        gap unmistakable (~40 supersteps vs ~4)."""
        from tests.core.test_api import ListingTwoKHop

        el = path_graph(40, directed=True)
        source, k = 0, 40
        _, vertex_result = run_vertex_centric(
            GraphSession(el, num_machines=2), BFSVertexProgram(source, k=k),
            max_supersteps=200,
        )
        _, partition_result = run_program(
            GraphSession(el, num_machines=2),
            lambda ctx: ListingTwoKHop(ctx, source, k),
            max_supersteps=200,
        )
        assert vertex_result.supersteps >= 40
        assert partition_result.supersteps <= 6
        assert partition_result.supersteps < vertex_result.supersteps

    def test_same_answers_across_models(self, small_rmat):
        from tests.core.test_api import ListingTwoKHop

        source, k = 9, 2
        values, _ = run_vertex_centric(
            GraphSession(small_rmat), BFSVertexProgram(source, k=k), max_supersteps=50
        )
        vertex_reached = set(np.nonzero(values >= 0)[0].tolist())
        programs, _ = run_program(
            GraphSession(small_rmat, num_machines=2),
            lambda ctx: ListingTwoKHop(ctx, source, k), max_supersteps=50,
        )
        partition_reached = set().union(*(p.visited for p in programs))
        assert vertex_reached == partition_reached == oracle_khop_reach(
            small_rmat, source, k
        )
