"""Stage two, native vs. NumPy: identical ranked answers.

``process_top_down`` has two tiers: the compiled hitting-DAG build plus
the array-native ``prune_central_graphs`` / ``minimal_central_graphs``
kernels, which prune, weigh and deduplicate every candidate and leave
only the top k to be built as objects (``native=None``), and the NumPy
DAG build plus the per-candidate Python route (``native=False``). Both
run here on the same bottom-up state, fuzzed over graph seeds, k, λ,
the ablation flags and the thread count, and must rank the same Central
Graphs with the same depth, node set, edge set and exact Eq. 6 score,
and report the same stage-two counters.
"""

import ctypes
import itertools

import numpy as np
import pytest

from repro.core.bottom_up import BottomUpSearch
from repro.core.scoring import central_graph_score
from repro.core.top_down import (
    HittingDAG,
    TopDownConfig,
    TopDownCounts,
    extract_central_graph,
    level_cover_prune,
    process_top_down,
)
from repro.core.weights import node_weights
from repro.graph.generators import WikiKBConfig, random_graph, wiki_like_kb
from repro.parallel import VectorizedBackend
from repro.parallel.vectorized import _native_kernel

from conftest import zero_activation

pytestmark = pytest.mark.skipif(
    _native_kernel() is None, reason="native kernel unavailable"
)

FLAGS = list(itertools.product([True, False], repeat=3))


def _graph(seed: int):
    if seed % 3 == 2:
        return random_graph(90, 360, seed=seed)
    config = WikiKBConfig(
        name=f"stage-two-{seed}",
        seed=seed,
        n_papers=60,
        n_people=30,
        n_misc=30,
        n_venues=8,
        n_orgs=8,
    )
    graph, _ = wiki_like_kb(config)
    return graph


def _bottom_up(graph, rng):
    n = graph.n_nodes
    q = int(rng.integers(2, 7))
    sets = [
        np.unique(rng.integers(0, n, size=int(rng.integers(1, 6))))
        for _ in range(q)
    ]
    if rng.random() < 0.5:
        activation = rng.integers(0, 4, size=n).astype(np.int32)
    else:
        activation = zero_activation(graph)
    central_k = int(rng.integers(5, 40))
    return BottomUpSearch(graph, backend=VectorizedBackend()).run(
        sets, activation, central_k
    )


def _ranked(graph, state, weights, native, **knobs):
    counts = TopDownCounts()
    ranked = [
        (
            answer.central_node,
            answer.depth,
            sorted(answer.nodes),
            sorted(answer.edges),
            answer.score,
        )
        for answer in process_top_down(
            graph,
            state,
            weights,
            config=TopDownConfig(native=native, **knobs),
            counts=counts,
        )
    ]
    return ranked, (counts.extracted, counts.dedup_dropped)


@pytest.mark.parametrize("seed", range(12))
def test_native_stage_two_matches_numpy(seed):
    graph = _graph(seed)
    weights = node_weights(graph)
    rng = np.random.default_rng(seed * 31 + 7)
    result = _bottom_up(graph, rng)
    state = result.state
    if not state.central_nodes:
        pytest.skip("fuzzed query found no Central Node")
    # The native side must really take the compiled path.
    assert HittingDAG(graph, state).native

    for _ in range(2):
        k = int(rng.integers(1, len(state.central_nodes) + 2))
        lam = float(rng.choice([0.0, 0.2, 0.5, 1.0, 2.0]))
        for level_cover, deduplicate, single_path in FLAGS:
            knobs = dict(
                k=k,
                lam=lam,
                apply_level_cover=level_cover,
                deduplicate=deduplicate,
                single_path=single_path,
            )
            numpy = _ranked(graph, state, weights, False, **knobs)
            assert numpy[0]
            for n_threads in (1, 4):
                native = _ranked(
                    graph, state, weights, None, n_threads=n_threads, **knobs
                )
                assert native == numpy, (knobs, n_threads)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_prune_and_mass_match_python_objects(seed):
    """Per candidate, the kernel's sorted node set and weight mass equal
    ``level_cover_prune`` + ``central_graph_score`` on the objects, with
    level cover on and off."""
    graph = _graph(seed)
    weights = node_weights(graph)
    state = _bottom_up(graph, np.random.default_rng(seed * 31 + 7)).state
    if not state.central_nodes:
        pytest.skip("fuzzed query found no Central Node")
    dag = HittingDAG(graph, state)
    centrals = np.array([c for c, _ in state.central_nodes], dtype=np.int64)
    for level_cover in (True, False):
        nodes, sizes, mass = dag.prune_native(centrals, weights, level_cover)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        assert offsets[-1] == len(nodes)
        for index, (central, depth) in enumerate(state.central_nodes):
            answer = extract_central_graph(graph, state, central, depth, dag)
            if level_cover:
                answer = level_cover_prune(answer, state.n_keywords)
            own = nodes[offsets[index] : offsets[index + 1]].tolist()
            assert own == sorted(answer.nodes)
            # λ = 0 makes the score the bare mass (d^0 = 1, 0^0 = 1).
            assert float(mass[index]) == central_graph_score(
                answer, weights, 0.0
            )


def test_kernel_output_grows_past_its_first_buffer():
    """The concatenated output starts at one graph's worst case (n) and
    grows by doubling; many candidates on a small graph must overflow it
    and still come back whole."""
    graph = random_graph(40, 200, seed=5)
    weights = node_weights(graph)
    rng = np.random.default_rng(3)
    state = BottomUpSearch(graph, backend=VectorizedBackend()).run(
        [np.unique(rng.integers(0, 40, size=3)) for _ in range(2)],
        zero_activation(graph),
        40,
    ).state
    dag = HittingDAG(graph, state)
    centrals = np.array([c for c, _ in state.central_nodes], dtype=np.int64)
    nodes, sizes, _ = dag.prune_native(centrals, weights, False)
    assert int(sizes.sum()) == len(nodes) > graph.n_nodes
    expected = [
        sorted(extract_central_graph(graph, state, c, d, dag).nodes)
        for c, d in state.central_nodes
    ]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    assert [
        nodes[offsets[i] : offsets[i + 1]].tolist()
        for i in range(len(centrals))
    ] == expected


@pytest.mark.parametrize("seed", range(20))
def test_minimal_kernel_keeps_exactly_the_minimal_sets(seed):
    """``minimal_central_graphs`` keeps a candidate iff no other
    candidate's node set is a strict subset of its own, split over
    ranges or not."""
    rng = np.random.default_rng(seed)
    n = 12
    centrals = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    sets = []
    for central in centrals:
        extra = rng.integers(0, n, size=int(rng.integers(0, 6)))
        if sets and rng.random() < 0.4:
            extra = np.concatenate((extra, sets[int(rng.integers(len(sets)))]))
        sets.append(np.unique(np.concatenate(([central], extra))))
    nodes = np.concatenate(sets).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum([len(x) for x in sets])))
    candidate_of = np.full(n, -1, dtype=np.int64)
    candidate_of[centrals] = np.arange(len(centrals))
    expected = [
        not any(set(other) < set(own) for other in sets)
        for own in sets
    ]
    middle = len(sets) // 2
    keep = np.full(len(sets), 7, dtype=np.uint8)
    for lo, hi in ((0, middle), (middle, len(sets))):
        _native_kernel().minimal_central_graphs(
            nodes, offsets.astype(np.int64), candidate_of, lo, hi,
            np.zeros(n, dtype=np.uint8), keep,
        )
    assert keep.tolist() == [int(flag) for flag in expected]


def _unbound_scratch(n, total):
    return (
        np.zeros(n, dtype=np.uint8),
        np.zeros(n, dtype=np.uint8),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int64),
        np.empty(2 * max(total, 1), dtype=np.int64),
        np.zeros(2, dtype=np.int64),
    )


@pytest.mark.parametrize("seed", range(4))
def test_bound_extract_matches_unbound_call(seed):
    """The once-per-thread raw-pointer binding returns what a fully
    checked ``NativeKernel.extract_graph`` call returns, per Central Node."""
    graph = _graph(seed)
    state = _bottom_up(graph, np.random.default_rng(seed * 31 + 7)).state
    if not state.central_nodes:
        pytest.skip("fuzzed query found no Central Node")
    dag = HittingDAG(graph, state)
    indptr_all, preds_all, col_offsets = dag._stacked
    scratch = _unbound_scratch(graph.n_nodes, int(col_offsets[-1]))
    out_nodes, out_pairs = scratch[4], scratch[5]
    for central, _ in state.central_nodes:
        n_nodes, n_pairs = _native_kernel().extract_graph(
            indptr_all.reshape(-1), preds_all, col_offsets,
            state.matrix.reshape(-1), graph.n_nodes, state.n_keywords,
            central, *scratch,
        )
        bound_nodes, bound_pairs = dag.extract_native(central)
        assert np.array_equal(bound_nodes, out_nodes[:n_nodes])
        assert np.array_equal(
            bound_pairs, out_pairs[: 2 * n_pairs].reshape(-1, 2)
        )


@pytest.mark.parametrize("seed", range(4))
def test_threaded_extraction_matches_serial(seed):
    """Each thread's slice of the Central Node range runs the kernel on
    its own scratch: four threads rank every candidate exactly as one
    does."""
    graph = _graph(seed)
    weights = node_weights(graph)
    state = _bottom_up(graph, np.random.default_rng(seed * 31 + 7)).state
    if not state.central_nodes:
        pytest.skip("fuzzed query found no Central Node")
    k = len(state.central_nodes)
    serial = _ranked(graph, state, weights, None, k=k, n_threads=1)
    threaded = _ranked(graph, state, weights, None, k=k, n_threads=4)
    assert threaded == serial


def _bind_args(n, total, **override):
    args = dict(
        indptr_all=np.zeros(n + 1, dtype=np.int64),
        preds_all=np.zeros(1, dtype=np.int64),
        col_offsets=np.zeros(2, dtype=np.int64),
        matrix=np.zeros(n, dtype=np.uint8),
        n=n,
        q=1,
        visited=np.zeros(n, dtype=np.uint8),
        seen=np.zeros(n, dtype=np.uint8),
        stack=np.empty(n, dtype=np.int64),
        col_nodes=np.empty(n, dtype=np.int64),
        out_nodes=np.empty(n, dtype=np.int64),
        out_pairs=np.empty(2 * max(total, 1), dtype=np.int64),
        n_out=np.zeros(2, dtype=np.int64),
    )
    args.update(override)
    return args


@pytest.mark.parametrize(
    "name, bad",
    [
        ("visited", np.zeros(16, dtype=np.int64)),
        ("stack", np.empty(16, dtype=np.int32)),
        ("out_pairs", np.empty(32, dtype=np.int64)[::2]),
        ("preds_all", [0]),
    ],
)
def test_binding_keeps_dtype_and_contiguity_checks(name, bad):
    kernel = _native_kernel()
    kernel.bind_extract_graph(**_bind_args(16, 8))  # the valid baseline
    with pytest.raises((ctypes.ArgumentError, TypeError)):
        kernel.bind_extract_graph(**_bind_args(16, 8, **{name: bad}))
