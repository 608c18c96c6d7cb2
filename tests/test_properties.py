"""Cross-cutting property-based tests on random search instances.

Complements the per-module suites with invariants that hold across the
whole pipeline on arbitrary inputs: pruning monotonicity, score
consistency, BANKS-I optimality, and containment-dedup correctness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.banks import BanksConfig, BanksI
from repro.core.activation import activation_levels
from repro.core.bottom_up import BottomUpSearch
from repro.core.scoring import central_graph_score
from repro.core.top_down import (
    HittingDAG,
    deduplicate_by_containment,
    extract_central_graph,
    level_cover_prune,
)
from repro.core.weights import node_weights
from repro.graph.algorithms import bfs_levels
from repro.graph.generators import random_graph
from repro.parallel import VectorizedBackend
from repro.text.inverted_index import InvertedIndex


def _search_instance(seed, alpha=None):
    graph = random_graph(
        28, 80, seed=seed,
        vocabulary=("alpha", "beta", "gamma", "delta"), words_per_node=2,
    )
    index = InvertedIndex.from_graph(graph)
    sets = [
        index.nodes_for_normalized_term(term)
        for term in ("alpha", "beta", "gamma")
    ]
    sets = [s for s in sets if len(s)]
    if len(sets) < 2:
        return None
    if alpha is None:
        activation = np.zeros(graph.n_nodes, dtype=np.int32)
    else:
        activation = activation_levels(node_weights(graph), 3.0, alpha)
    result = BottomUpSearch(graph, VectorizedBackend()).run(sets, activation, 5)
    return graph, sets, result


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 4000), alpha=st.sampled_from([None, 0.1, 0.4]))
def test_level_cover_invariants(seed, alpha):
    instance = _search_instance(seed, alpha)
    if instance is None:
        return
    graph, sets, result = instance
    q = result.state.n_keywords
    dag = HittingDAG(graph, result.state)
    for node, depth in result.state.central_nodes:
        original = extract_central_graph(graph, result.state, node, depth, dag)
        pruned = level_cover_prune(original, q)
        # Pruning never loses coverage, connectivity, or the central node.
        assert pruned.covers_all(q)
        assert pruned.all_nodes_reach_central()
        assert pruned.central_node == original.central_node
        # Pruning is monotone: subset of nodes and edges, same depth.
        assert pruned.nodes <= original.nodes
        assert pruned.edges <= original.edges
        assert pruned.depth == original.depth
        # Score monotonicity under non-negative weights.
        weights = np.abs(np.random.default_rng(seed).random(graph.n_nodes))
        assert central_graph_score(pruned, weights) <= central_graph_score(
            original, weights
        ) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 4000))
def test_extraction_sources_have_level_zero(seed):
    """Leaves of every hitting path are keyword sources (hit level 0)."""
    instance = _search_instance(seed)
    if instance is None:
        return
    graph, sets, result = instance
    matrix = result.state.matrix
    dag = HittingDAG(graph, result.state)
    for node, depth in result.state.central_nodes[:5]:
        answer = extract_central_graph(graph, result.state, node, depth, dag)
        predecessors = answer.predecessors()
        for member in answer.nodes:
            if member == answer.central_node:
                continue
            if not predecessors[member]:
                # A path leaf: must be a source of some keyword.
                assert any(matrix[member, c] == 0 for c in range(matrix.shape[1]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3000), k=st.integers(1, 8))
def test_banks1_path_sums_are_optimal(seed, k):
    """BANKS-I is Dijkstra-exact: every tree's path sum equals the true
    shortest-distance sum for its root."""
    graph = random_graph(
        22, 60, seed=seed, vocabulary=("alpha", "beta"), words_per_node=1
    )
    index = InvertedIndex.from_graph(graph)
    banks = BanksI(graph, index, BanksConfig(prestige_bonus=0.0))
    try:
        result = banks.search("alpha beta", k=k)
    except ValueError:
        return
    sets = [
        index.nodes_for_normalized_term(term) for term in ("alpha", "beta")
    ]
    levels = [bfs_levels(graph, list(map(int, s))) for s in sets if len(s)]
    for tree in result.answers:
        expected = sum(int(level[tree.root]) for level in levels)
        path_sum = sum(len(p) - 1 for p in tree.paths.values())
        assert path_sum == expected
        assert tree.score == pytest.approx(expected)


def _all_pairs_dedup(graphs):
    """The all-pairs containment filter: every kept set is scanned."""
    ordered = sorted(graphs, key=lambda g: (g.n_nodes, g.central_node))
    kept = []
    for graph in ordered:
        if any(graph.nodes > other.nodes for other in kept):
            continue
        kept.append(graph)
    return kept


def _draw_dedup_inputs(data):
    """Up to 60 graphs over nodes 0..10, each containing its Central
    Node; node sets repeat often, so equal sets and shared Central Nodes
    both occur."""
    from repro.core.central_graph import CentralGraph

    n_graphs = data.draw(st.integers(1, 60))
    graphs = []
    for i in range(n_graphs):
        if graphs and data.draw(st.booleans()):
            # Reuse an earlier node set: equal sets, and shared Central
            # Nodes whenever the same member is drawn again.
            members = set(data.draw(st.sampled_from(graphs)).nodes)
        else:
            members = data.draw(
                st.sets(st.integers(0, 10), min_size=1, max_size=7)
            )
        central = data.draw(st.sampled_from(sorted(members)))
        graphs.append(
            CentralGraph(central, 1, set(members), set(), {})
        )
    return graphs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_containment_dedup_properties(data):
    """Output has no strict-superset pair, keeps every minimal set, and is
    exactly the all-pairs oracle's output (same graphs, same order)."""
    graphs = _draw_dedup_inputs(data)
    kept = deduplicate_by_containment(graphs)
    oracle = _all_pairs_dedup(graphs)
    assert len(kept) == len(oracle)
    assert all(a is b for a, b in zip(kept, oracle))
    kept_sets = [g.nodes for g in kept]
    for i, a in enumerate(kept_sets):
        for j, b in enumerate(kept_sets):
            if i != j:
                assert not (a > b)
    # Every input that is minimal (contains no other input) survives.
    all_sets = [g.nodes for g in graphs]
    for g in graphs:
        if not any(g.nodes > other for other in all_sets):
            assert any(g is kept_graph for kept_graph in kept)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_containment_dedup_keeps_exactly_the_minimal_elements(data):
    """A graph is dropped iff some input's node set is a strict subset of
    its own, whatever the input order: the characterisation the native
    ``minimal_central_graphs`` kernel implements."""
    graphs = _draw_dedup_inputs(data)
    minimal = {
        id(g)
        for g in graphs
        if not any(other.nodes < g.nodes for other in graphs)
    }
    assert {id(g) for g in deduplicate_by_containment(graphs)} == minimal
    shuffled = data.draw(st.permutations(graphs))
    assert {id(g) for g in deduplicate_by_containment(shuffled)} == minimal
    assert {id(g) for g in deduplicate_by_containment(graphs[::-1])} == minimal


def test_containment_dedup_rejects_graph_without_its_central_node():
    from repro.core.central_graph import CentralGraph

    graphs = [
        CentralGraph(0, 1, {0, 1}, set(), {}),
        CentralGraph(5, 1, {1, 2}, set(), {}),
    ]
    with pytest.raises(ValueError):
        deduplicate_by_containment(graphs)
