import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hill.graph import (
    build_graph,
    cross_edges,
    cut_size,
    load_graph,
    subset_volume,
)

from conftest import random_graph


def test_build_graph_basic(cycle4):
    assert cycle4.node_count == 4
    assert cycle4.volume == 8
    assert cycle4.degree == (2, 2, 2, 2)
    assert cycle4.adjacency[0] == frozenset({1, 3})


def test_build_graph_collapses_duplicates():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert len(g.edges) == 1


def test_build_graph_rejects_no_vertices():
    with pytest.raises(ValueError, match="at least one vertex"):
        build_graph(0, [])


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(0, 1), (2, 2)])


def test_build_graph_rejects_isolated_vertex():
    with pytest.raises(ValueError, match="isolated"):
        build_graph(3, [(0, 1)])


def test_isolated_vertex_in_a_sparse_id_range_allocates_nothing_per_vertex():
    # a graph line such as "1 1000000000" must not allocate one set per vertex id
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^vertex 2 is isolated \(degree 0\)$"):
            build_graph(10**6, [(0, 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(2, [(0, 5)])


def test_load_graph_parses_comments_and_blanks():
    g = load_graph("# a square\n0 1\n\n1 2\n2 3\n3 0\n")
    assert g.node_count == 4
    assert len(g.edges) == 4


def test_load_graph_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        load_graph("0 1\n1 x\n")
    with pytest.raises(ValueError, match="line 3"):
        load_graph("0 1\n1 2\n4\n")


def test_load_graph_rejects_negative_ids():
    with pytest.raises(ValueError, match="line 2: negative vertex id in '-1 2'"):
        load_graph("0 1\n-1 2\n")


def test_load_graph_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        load_graph("# nothing here\n")


def test_cut_size_known(cycle4, bridge_triangles):
    assert cut_size(cycle4, {0}) == 2
    assert cut_size(cycle4, {0, 1}) == 2
    assert cut_size(cycle4, {0, 2}) == 4
    assert cut_size(bridge_triangles, {0, 1, 2}) == 1


def test_subset_volume_known(cycle4, bridge_triangles):
    assert subset_volume(cycle4, {0, 1}) == 4
    assert subset_volume(bridge_triangles, {2, 3}) == 6


def test_cut_rejects_bad_vertex(cycle4):
    with pytest.raises(ValueError, match="out of range"):
        cut_size(cycle4, {0, 9})


def test_cross_edges_known(bridge_triangles):
    assert cross_edges(bridge_triangles, {0, 1, 2}, {3, 4, 5}) == 1
    assert cross_edges(bridge_triangles, {0}, {1, 2}) == 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), bits=st.integers(0, 255))
def test_cut_complement_symmetry(seed, bits):
    g = random_graph(np.random.default_rng(seed))
    subset = {v for v in range(g.node_count) if bits >> v & 1}
    rest = set(range(g.node_count)) - subset
    assert cut_size(g, subset) == cut_size(g, rest)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), bits=st.integers(0, 255))
def test_volume_partition_additivity(seed, bits):
    g = random_graph(np.random.default_rng(seed))
    subset = {v for v in range(g.node_count) if bits >> v & 1}
    rest = set(range(g.node_count)) - subset
    assert subset_volume(g, subset) + subset_volume(g, rest) == g.volume


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), bits=st.integers(0, 255))
def test_cross_edges_match_cut_identity(seed, bits):
    # cut(A u B) = cut(A) + cut(B) - 2 cross(A, B) for disjoint A, B
    g = random_graph(np.random.default_rng(seed))
    a = {v for v in range(g.node_count) if bits >> v & 1}
    b = set(range(g.node_count)) - a
    assert cut_size(g, a | b) == cut_size(g, a) + cut_size(g, b) - 2 * cross_edges(g, a, b)
