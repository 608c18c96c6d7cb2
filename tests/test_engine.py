"""End-to-end KeywordSearchEngine behaviour."""

import threading

import numpy as np
import pytest

from repro.core.engine import (
    EmptyQueryError,
    EngineConfig,
    KeywordSearchEngine,
)
from repro.parallel import SequentialBackend, VectorizedBackend

from conftest import zero_activation


@pytest.fixture(scope="module")
def engine(request):
    tiny_kb = request.getfixturevalue("tiny_kb")
    graph, _ = tiny_kb
    return KeywordSearchEngine(graph, backend=VectorizedBackend())


def test_fig1_end_to_end(fig1):
    engine = KeywordSearchEngine(fig1.graph, backend=SequentialBackend())
    result = engine.search(
        "xml rdf sql", k=1, activation_override=fig1.activation
    )
    assert result.keywords == ("xml", "rdf", "sql")
    assert result.depth == fig1.expected_depth
    top = result.answers[0].graph
    assert top.central_node == fig1.central_node
    assert 9 in top.nodes and 4 in top.nodes and 5 in top.nodes


def test_unknown_terms_dropped(engine):
    result = engine.search("database xyzzyplugh", k=3)
    assert "xyzzyplugh" in result.dropped_terms
    assert result.keywords == ("databas",)


def test_all_terms_unknown_raises(engine):
    with pytest.raises(EmptyQueryError):
        engine.search("qqqq zzzz")


def test_empty_query_raises(engine):
    with pytest.raises(EmptyQueryError):
        engine.search("the of and")  # all stopwords


def test_k_limits_answer_count(engine):
    result = engine.search("machine learning data", k=4)
    assert len(result.answers) <= 4
    assert len(result) == len(result.answers)


def test_answers_sorted_by_score(engine):
    result = engine.search("knowledge graph query", k=10)
    scores = [answer.score for answer in result.answers]
    assert scores == sorted(scores)


def test_every_answer_covers_all_keywords(engine):
    result = engine.search("machine learning translation", k=10)
    q = len(result.keywords)
    for answer in result.answers:
        assert answer.graph.covers_all(q)
        assert answer.graph.all_nodes_reach_central()


def test_search_terms_equivalent_to_search(engine):
    a = engine.search("knowledge base sparql", k=5)
    b = engine.search_terms(["knowledge", "base", "sparql"], k=5)
    assert [x.graph.central_node for x in a.answers] == [
        x.graph.central_node for x in b.answers
    ]


def test_alpha_cache_reused(engine):
    first = engine.activation_for(0.1)
    second = engine.activation_for(0.1)
    assert first is second
    other = engine.activation_for(0.4)
    assert other is not first
    assert (other <= first).all()


def test_duplicate_terms_collapse(engine):
    result = engine.search("learning learning learning", k=2)
    assert result.keywords == ("learn",)


def test_timer_has_all_phases(engine):
    result = engine.search("graph database", k=3)
    ms = result.milliseconds()
    for phase in (
        "initialization",
        "enqueuing_frontiers",
        "identifying_central_nodes",
        "expansion",
        "top_down_processing",
        "total",
    ):
        assert phase in ms
    assert ms["total"] >= ms["expansion"]


def test_storage_report_scales_with_knum(engine):
    small = engine.storage_report(knum=2)
    large = engine.storage_report(knum=10)
    assert small.pre_storage == large.pre_storage
    assert large.max_running_storage > small.max_running_storage
    assert large.overhead_ratio > 1.0
    mb = large.as_megabytes()
    assert mb["pre_storage_mb"] > 0


def test_weights_length_validated(tiny_graph):
    with pytest.raises(ValueError):
        KeywordSearchEngine(
            tiny_graph, weights=np.zeros(3), average_distance=3.0
        )


def test_engine_accepts_precomputed_artifacts(tiny_kb):
    graph, _ = tiny_kb
    base = KeywordSearchEngine(graph)
    clone = KeywordSearchEngine(
        graph,
        index=base.index,
        weights=base.weights,
        average_distance=base.average_distance,
    )
    a = base.search("machine learning", k=3)
    b = clone.search("machine learning", k=3)
    assert [x.graph.central_node for x in a.answers] == [
        x.graph.central_node for x in b.answers
    ]


def test_config_defaults_applied(tiny_kb):
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(
        graph, config=EngineConfig(topk=2, alpha=0.4)
    )
    result = engine.search("machine learning data")
    assert len(result.answers) <= 2


class _RendezvousKernel:
    """Native kernel proxy: after each whole-level call, wait for the
    other searching thread's call before returning, so both C calls have
    written their outputs before either side reads them. One core rarely
    preempts a thread inside the GIL-free kernel; this forces the overlap
    two cores produce. A finished thread aborts the barrier, after which
    calls stop waiting."""

    def __init__(self, kernel, barrier):
        self._kernel = kernel
        self._barrier = barrier

    def whole_level(self, *args):
        n_frontier = self._kernel.whole_level(*args)
        try:
            self._barrier.wait(timeout=30)
        except threading.BrokenBarrierError:
            pass
        return n_frontier


class _RendezvousBackend(VectorizedBackend):
    def __init__(self, barrier):
        super().__init__()
        self._barrier = barrier

    def _whole_level_native(self, state):
        kernel = super()._whole_level_native(state)
        if kernel is None:
            return None
        return _RendezvousKernel(kernel, self._barrier)


def test_concurrent_searches_on_one_native_engine_match_solo(tiny_kb):
    """Two threads searching one engine must each get the solo answers
    (regression: the whole-level output buffers were shared across
    calls while the native kernel runs without the GIL)."""
    from repro.parallel.vectorized import _native_kernel

    if _native_kernel() is None:
        pytest.skip("native kernel unavailable")
    graph, _ = tiny_kb
    queries = [
        "machine learning data",
        "knowledge graph query",
        "database xml",
        "neural network vision",
        "graph data mining",
        "query processing sql",
    ]
    solo_engine = KeywordSearchEngine(graph, backend=VectorizedBackend())

    def signature(result):
        return [
            (
                a.graph.central_node,
                a.graph.depth,
                sorted(a.graph.nodes),
                sorted(a.graph.edges),
                a.score,
            )
            for a in result.answers
        ]

    expected = {q: signature(solo_engine.search(q, k=5)) for q in queries}
    start = threading.Barrier(2)
    level = threading.Barrier(2)
    engine = KeywordSearchEngine(graph, backend=_RendezvousBackend(level))
    wrong = []
    errors = []

    def client(order):
        try:
            start.wait(timeout=30)
            for query in order:
                if signature(engine.search(query, k=5)) != expected[query]:
                    wrong.append(query)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            level.abort()

    threads = [
        threading.Thread(target=client, args=(queries,)),
        threading.Thread(target=client, args=(queries[::-1],)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert wrong == []
