"""Traced replay: one query through the engine's public layer functions,
in engine order, with a benchmark-side span around each layer call.

``KeywordSearchEngine.search`` runs, in order: query parsing and keyword
resolution (``text``), the bottom-up search (``core.bottom_up`` on the
engine's backend), then stage two (``core.top_down``): hitting-DAG build,
Central Graph extraction, level-cover pruning, containment dedup, and
Eq. 6 scoring into the top-k heap (``core.scoring``). The replay calls the
same public functions with the engine's own configuration; a run checks
that the replay ranks exactly as ``engine.search`` does for every query,
otherwise its per-layer numbers would describe a different program.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from spans import SpanRecorder

#: Layer spans below the per-query root span, in engine order.
LAYERS = (
    "text",
    "bottom_up",
    "top_down.dag",
    "top_down.extract",
    "top_down.level_cover",
    "top_down.dedup",
    "top_down.score",
)
ROOT_SPAN = "query"


@dataclass
class QueryCounts:
    """Work counters of one replayed query."""

    source_nodes: int = 0
    levels: int = 0
    edges_gathered: int = 0
    central_nodes: int = 0
    state_bytes: int = 0
    extracted: int = 0
    dedup_dropped: int = 0
    kept: int = 0
    dag_alloc_bytes: int = 0


class Replayer:
    """Replays queries against one engine's graph, index and backend."""

    def __init__(self, engine, recorder: SpanRecorder) -> None:
        from repro.core.bottom_up import BottomUpSearch

        self.engine = engine
        self.recorder = recorder
        self.searcher = BottomUpSearch(
            engine.graph, backend=engine.backend, lmax=engine.config.lmax
        )

    def run(self, query: str, k: int, alpha: float, qid: int) -> Tuple[list, QueryCounts]:
        """Replay ``query``; returns (ranked Central Graphs, counters)."""
        from repro.core.results import EmptyQueryError
        from repro.core.scoring import TopKHeap, central_graph_score
        from repro.core.top_down import (
            HittingDAG,
            deduplicate_by_containment,
            extract_central_graph,
            level_cover_prune,
        )
        from repro.text.query_parser import parse_query, resolve_keyword_groups

        engine = self.engine
        config = engine.config
        graph = engine.graph
        span = self.recorder.span
        counts = QueryCounts()
        with span(ROOT_SPAN, qid):
            with span("text", qid):
                pairs = resolve_keyword_groups(parse_query(query), engine.index)
            node_sets = [nodes for _, nodes in pairs if len(nodes) > 0]
            if not node_sets:
                raise EmptyQueryError(f"no query term matches any node: {query!r}")
            activation = engine.activation_for(alpha)
            with span("bottom_up", qid):
                bottom_up = self.searcher.run(node_sets, activation, k)
            state = bottom_up.state
            central = state.central_nodes
            with span("top_down.dag", qid):
                dag = HittingDAG(graph, state, native=config.top_down_native) if central else None
            with span("top_down.extract", qid):
                extracted = [
                    extract_central_graph(graph, state, node, depth, dag, config.single_path)
                    for node, depth in central
                ]
            with span("top_down.level_cover", qid):
                if config.apply_level_cover:
                    pruned = [level_cover_prune(g, state.n_keywords) for g in extracted]
                else:
                    pruned = extracted
            with span("top_down.dedup", qid):
                kept = deduplicate_by_containment(pruned) if config.deduplicate else pruned
            with span("top_down.score", qid):
                for answer in kept:
                    answer.score = central_graph_score(answer, engine.weights, config.lam)
                heap = TopKHeap(k)
                heap.extend(kept)
                ranked = heap.ranked()
        counts.source_nodes = int(sum(len(nodes) for nodes in node_sets))
        counts.levels = int(bottom_up.levels_executed)
        counts.edges_gathered = int(sum(p.edges_scanned for p in bottom_up.level_profile))
        counts.central_nodes = int(state.n_central_nodes)
        counts.state_bytes = int(bottom_up.peak_state_nbytes)
        counts.extracted = len(extracted)
        counts.dedup_dropped = len(pruned) - len(kept)
        counts.kept = len(ranked)
        if central:
            # Allocation is measured on a second, untimed build: tracing
            # allocations would distort the timed one.
            tracemalloc.start()
            HittingDAG(graph, state, native=config.top_down_native)
            counts.dag_alloc_bytes = int(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return ranked, counts


@dataclass
class LayerStats:
    """Per-layer totals over a set of replayed queries."""

    self_s: Dict[str, float] = field(default_factory=dict)
    traced_s: float = 0.0
    counts: List[QueryCounts] = field(default_factory=list)
    #: Largest |Σ self − traced| over queries, seconds.
    max_gap_s: float = 0.0

    @property
    def n(self) -> int:
        return len(self.counts)


def layer_stats(recorder: SpanRecorder, counts: Dict[int, QueryCounts]) -> LayerStats:
    """Aggregate the recorder's replay spans for the queries in ``counts``."""
    own = recorder.self_by_query()
    roots = recorder.roots(ROOT_SPAN)
    stats = LayerStats(self_s={name: 0.0 for name in (ROOT_SPAN, *LAYERS)})
    for qid, query_counts in counts.items():
        layers = own[qid]
        total = roots[qid]
        for name in stats.self_s:
            stats.self_s[name] += layers.get(name, 0.0)
        stats.traced_s += total
        stats.max_gap_s = max(
            stats.max_gap_s,
            abs(sum(layers.get(name, 0.0) for name in (ROOT_SPAN, *LAYERS)) - total),
        )
        stats.counts.append(query_counts)
    return stats


def per_layer_metrics(stats: LayerStats) -> Dict[str, float]:
    """Per-query means (ms / counts) of the engine layers."""
    n = max(stats.n, 1)

    def ms(name: str) -> float:
        return stats.self_s[name] * 1e3 / n

    def mean(attr: str) -> float:
        return sum(getattr(c, attr) for c in stats.counts) / n

    extracted = sum(c.extracted for c in stats.counts)
    return {
        "text.parse_ms": ms("text"),
        "text.source_nodes": mean("source_nodes"),
        "bottom_up.ms": ms("bottom_up"),
        "bottom_up.levels": mean("levels"),
        "bottom_up.edges_gathered": mean("edges_gathered"),
        "bottom_up.central_nodes": mean("central_nodes"),
        "bottom_up.state_bytes": mean("state_bytes"),
        "top_down.dag_ms": ms("top_down.dag"),
        "top_down.dag_alloc_bytes": mean("dag_alloc_bytes"),
        "top_down.extract_ms": ms("top_down.extract"),
        "top_down.extracted": mean("extracted"),
        "top_down.kept_ratio": (
            sum(c.kept for c in stats.counts) / extracted if extracted else 0.0
        ),
        "top_down.level_cover_ms": ms("top_down.level_cover"),
        "top_down.dedup_ms": ms("top_down.dedup"),
        "top_down.dedup_dropped": mean("dedup_dropped"),
        "top_down.score_ms": ms("top_down.score"),
        "trace.glue_ms": ms(ROOT_SPAN),
        "trace.query_ms": stats.traced_s * 1e3 / n,
    }
