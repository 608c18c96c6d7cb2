"""Top-down processing: extraction, level-cover, dedup, ranking."""

import numpy as np
import pytest

from repro.core.bottom_up import BottomUpSearch
from repro.core.central_graph import CentralGraph
from repro.core.state import SearchState
from repro.core.top_down import (
    HittingDAG,
    TopDownConfig,
    deduplicate_by_containment,
    extract_central_graph,
    level_cover_prune,
    process_top_down,
)
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain_graph, random_graph

from conftest import zero_activation


def _sets(*groups):
    return [np.array(g, dtype=np.int64) for g in groups]


def _search(graph, sets, activation=None, k=1, lmax=24):
    if activation is None:
        activation = zero_activation(graph)
    return BottomUpSearch(graph, lmax=lmax).run(_sets(*sets), activation, k)


def test_extract_chain_single_paths(chain5):
    result = _search(chain5, ([0], [4]))
    answer = extract_central_graph(chain5, result.state, 2, 2)
    assert answer.central_node == 2
    assert answer.nodes == {0, 1, 2, 3, 4}
    assert answer.edges == {(0, 1), (1, 2), (4, 3), (3, 2)}
    assert answer.all_nodes_reach_central()
    assert answer.covers_all(2)


def test_extract_multipath_diamond(diamond):
    """Both parallel shortest paths belong to the Central Graph."""
    result = _search(diamond, ([0], [3]), k=2)
    centrals = dict(result.central_nodes)
    assert centrals.get(1) == 1 or centrals.get(3) == 2
    # Search again targeting the two-hop central at node 3's side:
    # extract at whichever central covers both keywords via both bridges.
    state = result.state
    # Node 1 and node 2 are both hit by both BFS instances at level 1.
    answer = extract_central_graph(diamond, state, 1, 1)
    assert answer.nodes >= {0, 1, 3}
    # The sibling bridge 2 is NOT part of paths to central node 1.
    assert 2 not in answer.nodes


def test_extract_respects_multi_predecessors():
    # Two sources both adjacent to the central: both hitting paths kept.
    builder = GraphBuilder()
    for i in range(4):
        builder.add_node(str(i))
    builder.add_edge(0, 2, "p")
    builder.add_edge(1, 2, "p")
    builder.add_edge(3, 2, "p")
    graph = builder.build()
    result = _search(graph, ([0, 1], [3]))
    answer = extract_central_graph(graph, result.state, 2, 1)
    assert answer.edges == {(0, 2), (1, 2), (3, 2)}
    assert answer.keyword_contributions == {
        0: frozenset({0}),
        1: frozenset({0}),
        3: frozenset({1}),
    }


def test_extract_with_activation_delays(fig1):
    """The Fig. 1 answer: cycle via v0 is excluded, four XML paths kept."""
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    answer = extract_central_graph(fig1.graph, result.state, 2, 4)
    assert answer.central_node == 2
    assert answer.nodes == {1, 2, 3, 4, 5, 6, 7, 8, 9}
    # Four hitting paths from v9 (through 3, 6, 7, 8).
    for via in (3, 6, 7, 8):
        assert (9, via) in answer.edges
        assert (via, 2) in answer.edges
    # Both RDF nodes hit v2 directly.
    assert (4, 2) in answer.edges and (5, 2) in answer.edges
    assert (1, 2) in answer.edges
    assert answer.all_nodes_reach_central()


def test_hitting_dag_matches_edge_by_edge(fig1):
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    dag = HittingDAG(fig1.graph, result.state)
    # v2's XML predecessors at level 4 are exactly the four bridges.
    assert set(map(int, dag.predecessors(2, 0))) == {3, 6, 7, 8}
    assert set(map(int, dag.predecessors(2, 1))) == {4, 5}
    assert set(map(int, dag.predecessors(2, 2))) == {1}


def _manual_graph(contributions, edges, central=0, depth=2):
    nodes = set()
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    nodes.add(central)
    return CentralGraph(
        central_node=central,
        depth=depth,
        nodes=nodes,
        edges=set(edges),
        keyword_contributions={
            node: frozenset(cols) for node, cols in contributions.items()
        },
    )


def test_level_cover_prunes_lower_levels():
    """Fig. 5: the two-keyword node makes single-keyword carriers redundant.

    central 0; node 1 contributes {0, 1}; nodes 2 and 3 contribute {0}.
    """
    graph = _manual_graph(
        contributions={1: (0, 1), 2: (0,), 3: (0,)},
        edges=[(1, 0), (2, 0), (3, 0)],
    )
    pruned = level_cover_prune(graph, n_keywords=2)
    assert pruned.nodes == {0, 1}
    assert pruned.edges == {(1, 0)}
    assert pruned.pruned


def test_level_cover_keeps_whole_level():
    """Nodes within one level never prune each other."""
    graph = _manual_graph(
        contributions={1: (0,), 2: (0,), 3: (1,)},
        edges=[(1, 0), (2, 0), (3, 0)],
    )
    pruned = level_cover_prune(graph, n_keywords=2)
    # All three are level-1 contributors; coverage completes only with
    # the whole level, so nothing is pruned.
    assert pruned.nodes == {0, 1, 2, 3}


def test_level_cover_preserves_shared_path_nodes():
    """A path node serving a preserved keyword node survives pruning."""
    # 1 --(0,1)--> 4 -> 0  and 2 --(0)--> 4 -> 0: node 4 shared.
    graph = _manual_graph(
        contributions={1: (0, 1), 2: (0,)},
        edges=[(1, 4), (2, 4), (4, 0)],
    )
    pruned = level_cover_prune(graph, n_keywords=2)
    assert pruned.nodes == {0, 1, 4}
    assert (2, 4) not in pruned.edges


def test_level_cover_central_covers_everything():
    graph = _manual_graph(
        contributions={0: (0, 1), 1: (0,)},
        edges=[(1, 0)],
    )
    pruned = level_cover_prune(graph, n_keywords=2)
    assert pruned.nodes == {0}


def test_level_cover_keeps_coverage_invariant(fig1):
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    answer = extract_central_graph(fig1.graph, result.state, 2, 4)
    pruned = level_cover_prune(answer, 3)
    assert pruned.covers_all(3)
    assert pruned.nodes <= answer.nodes
    assert pruned.all_nodes_reach_central()


def test_deduplicate_removes_strict_supersets():
    small = _manual_graph({1: (0,)}, [(1, 0)], central=0)
    big = _manual_graph({1: (0,)}, [(1, 0), (2, 0)], central=0)
    kept = deduplicate_by_containment([big, small])
    assert kept == [small]


def test_deduplicate_keeps_equal_sets():
    a = _manual_graph({1: (0,)}, [(1, 0)], central=0)
    b = _manual_graph({0: (0,)}, [(1, 0)], central=0)
    kept = deduplicate_by_containment([a, b])
    assert len(kept) == 2


def test_deduplicate_keeps_overlapping_non_nested():
    a = _manual_graph({1: (0,)}, [(1, 0), (2, 0)], central=0)
    b = _manual_graph({1: (0,)}, [(1, 0), (3, 0)], central=0)
    assert len(deduplicate_by_containment([a, b])) == 2


def test_process_top_down_ranks_by_score(chain5):
    result = _search(chain5, ([0, 2], [2, 4]), k=3)
    weights = np.linspace(0.1, 0.5, 5)
    ranked = process_top_down(
        chain5, result.state, weights, TopDownConfig(k=3)
    )
    assert ranked
    scores = [answer.score for answer in ranked]
    assert scores == sorted(scores)
    for answer in ranked:
        assert answer.pruned


def test_process_top_down_thread_parallelism_matches_serial(random20):
    result = _search(
        random20, ([0, 1], [5], [10, 11]), k=5
    )
    weights = np.linspace(0, 1, random20.n_nodes)
    serial = process_top_down(
        random20, result.state, weights, TopDownConfig(k=5, n_threads=1)
    )
    threaded = process_top_down(
        random20, result.state, weights, TopDownConfig(k=5, n_threads=3)
    )
    assert [a.central_node for a in serial] == [
        a.central_node for a in threaded
    ]
    assert [a.score for a in serial] == [a.score for a in threaded]


def test_process_top_down_prebuilt_skips_extraction(chain5):
    result = _search(chain5, ([0], [4]))
    weights = np.ones(5)
    prebuilt = [_manual_graph({0: (0,), 4: (1,)}, [(0, 2), (4, 2)], central=2)]
    ranked = process_top_down(
        chain5,
        result.state,
        weights,
        TopDownConfig(k=1),
        prebuilt=prebuilt,
    )
    assert len(ranked) == 1
    assert ranked[0].central_node == 2


def test_extraction_edges_satisfy_theorem_v4(fig1):
    """Every recovered edge obeys the hitting-level recurrence."""
    result = BottomUpSearch(fig1.graph).run(
        _sets(*fig1.keyword_nodes), fig1.activation, k=1
    )
    state = result.state
    answer = extract_central_graph(fig1.graph, state, 2, 4)
    activation = fig1.activation
    for pred, target in answer.edges:
        consistent_for_some_keyword = False
        for column in range(3):
            pred_level = int(state.matrix[pred, column])
            target_level = int(state.matrix[target, column])
            if pred_level == 255 or target_level == 255:
                continue
            floor = 0 if state.keyword_node[target] else activation[target] - 1
            expected = 1 + max(activation[pred], pred_level, floor)
            if target_level == expected:
                consistent_for_some_keyword = True
        assert consistent_for_some_keyword, (pred, target)


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_process_top_down_rejects_bad_lambda_without_candidates(lam):
    """λ is checked before stage two runs, so a query that finds no
    Central Node (keywords in different components) still rejects it."""
    graph = random_graph(40, 60, seed=3)
    result = _search(graph, ([0], [23]), k=3)
    assert not result.state.central_nodes
    weights = np.ones(graph.n_nodes)
    assert process_top_down(graph, result.state, weights, TopDownConfig(k=3)) == []
    with pytest.raises(ValueError, match="lambda"):
        process_top_down(
            graph, result.state, weights, TopDownConfig(k=3, lam=lam)
        )


@pytest.mark.parametrize("native", [None, False])
def test_process_top_down_rejects_nan_lambda_with_candidates(chain5, native):
    result = _search(chain5, ([0, 2], [2, 4]), k=3)
    assert result.state.central_nodes
    with pytest.raises(ValueError, match="lambda"):
        process_top_down(
            chain5,
            result.state,
            np.ones(5),
            TopDownConfig(k=3, lam=float("nan"), native=native),
        )
