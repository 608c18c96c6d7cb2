"""The query flight recorder (``repro.obs.flight``) and its wiring.

Covers the ring-buffer/slow-log mechanics, the engine integration
(every query recorded, errors linked by query id and phase), the
``REPRO_OBS=0`` parity contract (disabled path identical to the
untraced seed), and the process tier: worker chunk spans recorded in
the pool workers must come back stitched under the parent query span.
"""

import json

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.results import EmptyQueryError
from repro.instrumentation import PhaseTimer
from repro.obs import FlightRecorder, WorkerSpanRecorder, stitch_worker_spans
from repro.obs.flight import query_spans, spans_to_chrome_trace
from repro.obs.tracing import Tracer, validate_chrome_trace
from repro.parallel import ProcessPoolBackend, VectorizedBackend
from repro.parallel.vectorized import _native_kernel


@pytest.fixture()
def engine(tiny_kb):
    graph, _ = tiny_kb
    return KeywordSearchEngine(graph, backend=VectorizedBackend())


# ---------------------------------------------------------------------------
# Recorder mechanics
# ---------------------------------------------------------------------------
def test_engine_records_every_query(engine):
    flight = FlightRecorder(max_records=8, slow_ms=0)
    engine.flight = flight
    result = engine.search("machine learning", k=3)
    assert flight.completed == 1
    record = flight.get(result.query_id)
    assert record is not None
    assert record.outcome == "ok"
    assert record.query == "machine learning"
    assert record.keywords == ("machin", "learn")
    assert record.backend == "vectorized"
    assert record.n_answers == len(result.answers)
    assert record.depth == result.depth
    assert record.duration_ms > 0
    assert "total" in record.phases
    # Every record carries a span tree even without an engine tracer.
    names = {span["name"] for span in record.spans}
    assert "query" in names
    assert any(name.startswith("phase:") for name in names)
    validate_chrome_trace(record.chrome_trace())
    engine.flight = None


def test_record_explains_stage_two_work(engine):
    """Extracted vs dedup-dropped Central Graphs reach the flight record,
    matching a by-hand replay of stage two on the same bottom-up state."""
    from repro.core.top_down import (
        HittingDAG,
        deduplicate_by_containment,
        extract_central_graph,
        level_cover_prune,
    )
    from repro.text.query_parser import parse_query, resolve_keyword_groups

    flight = FlightRecorder(max_records=8, slow_ms=0)
    engine.flight = flight
    result = engine.search("database query optimization", k=10)
    engine.flight = None
    record = flight.get(result.query_id)

    pairs = resolve_keyword_groups(
        parse_query("database query optimization"), engine.index
    )
    bottom_up = engine._searcher.run(
        [nodes for _, nodes in pairs if len(nodes)],
        engine.activation_for(engine.config.alpha),
        10,
    )
    state = bottom_up.state
    dag = HittingDAG(engine.graph, state)
    pruned = [
        level_cover_prune(
            extract_central_graph(engine.graph, state, node, depth, dag),
            state.n_keywords,
        )
        for node, depth in state.central_nodes
    ]
    dropped = len(pruned) - len(deduplicate_by_containment(pruned))
    assert dropped > 0  # the fixture query exercises the filter
    assert result.n_extracted == len(state.central_nodes)
    assert result.n_dedup_dropped == dropped
    assert record.n_extracted == result.n_extracted
    assert record.n_dedup_dropped == result.n_dedup_dropped
    payload = record.as_dict(include_trace=False)
    assert payload["n_extracted"] == result.n_extracted
    assert payload["n_dedup_dropped"] == dropped
    query_span = next(s for s in record.spans if s["name"] == "query")
    assert query_span["attrs"]["n_extracted"] == result.n_extracted
    assert query_span["attrs"]["n_dedup_dropped"] == dropped


@pytest.mark.parametrize("native", [None, False])
def test_record_splits_stage_two_into_spans(tiny_kb, native):
    """The flight record splits stage two under its phase span: the DAG
    build, the selection and (native tier) the winners' materialisation."""
    from repro.core.engine import EngineConfig

    graph, _ = tiny_kb
    engine = KeywordSearchEngine(
        graph,
        backend=VectorizedBackend(),
        config=EngineConfig(top_down_native=native),
    )
    flight = FlightRecorder(max_records=8, slow_ms=0)
    engine.flight = flight
    result = engine.search("database query optimization", k=10)
    record = flight.get(result.query_id)
    assert result.answers
    phase = next(
        s for s in record.spans if s["name"] == "phase:top_down_processing"
    )
    children = [s for s in record.spans if s["parent_id"] == phase["span_id"]]
    names = [s["name"] for s in sorted(children, key=lambda s: s["start_ns"])]
    if native is None and _native_kernel() is not None:
        assert names == [
            "top_down.dag", "top_down.select", "top_down.materialise"
        ]
    else:
        assert names == ["top_down.dag", "top_down.select"]
    assert sum(s["duration_ns"] for s in children) <= phase["duration_ns"]

    # With tracing off the timer is a plain PhaseTimer, which carries no
    # tracer, so stage two opens no span; the answers do not change.
    engine.flight = None
    plain = engine.search("database query optimization", k=10)
    assert type(plain.timer) is PhaseTimer
    assert [a.graph.score for a in plain.answers] == [
        a.graph.score for a in result.answers
    ]


def test_ring_evicts_but_count_is_exact(engine):
    flight = FlightRecorder(max_records=3, slow_ms=0)
    engine.flight = flight
    for _ in range(5):
        engine.search("machine learning", k=1)
    assert flight.completed == 5
    recent = flight.recent()
    assert len(recent) == 3
    # Newest first, ids monotone.
    ids = [record.query_id for record in recent]
    assert ids == sorted(ids, reverse=True)
    engine.flight = None


def test_slow_log_persists_trace(engine, tmp_path):
    flight = FlightRecorder(
        max_records=4, slow_ms=1e-6, slow_trace_dir=str(tmp_path)
    )
    engine.flight = flight
    result = engine.search("machine learning", k=1)
    record = flight.get(result.query_id)
    assert record.slow
    assert record.trace is not None  # persisted eagerly
    assert flight.slow_queries()[0].query_id == result.query_id
    trace_file = tmp_path / f"slow_query_{result.query_id}.trace.json"
    assert trace_file.exists()
    payload = json.loads(trace_file.read_text(encoding="utf-8"))
    validate_chrome_trace(payload)
    engine.flight = None


def test_failed_query_recorded_with_phase_and_id(engine):
    flight = FlightRecorder(max_records=4, slow_ms=0)
    engine.flight = flight
    with pytest.raises(EmptyQueryError) as excinfo:
        engine.search("zzzzqqq")
    error = excinfo.value
    assert error.query_id is not None
    assert error.phase == "initialization"
    record = flight.get(error.query_id)
    assert record.outcome == "error"
    assert record.error_phase == "initialization"
    assert record.dropped_terms == ("zzzzqqq",)
    assert "no query term matches" in record.error
    engine.flight = None


def test_debug_payload_shape(engine):
    flight = FlightRecorder(max_records=4, slow_ms=0)
    engine.flight = flight
    engine.search("machine learning", k=1)
    payload = flight.debug_payload()
    assert payload["capacity"] == 4
    assert payload["completed"] == 1
    assert payload["recent"][0]["outcome"] == "ok"
    assert payload["slow"] == []
    breakdown = flight.phase_breakdown_ms()
    assert "total" in breakdown and breakdown["total"] > 0
    engine.flight = None


def test_disabled_recorder_capacity_zero(engine):
    flight = FlightRecorder(max_records=0, slow_ms=0)
    engine.flight = flight
    assert not flight.enabled
    result = engine.search("machine learning", k=1)
    assert result.query_id is None
    assert flight.completed == 0
    engine.flight = None


# ---------------------------------------------------------------------------
# REPRO_OBS=0 parity: the disabled path is the untraced seed path
# ---------------------------------------------------------------------------
def test_repro_obs_zero_parity(engine, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "0")
    flight = FlightRecorder(max_records=8, slow_ms=0)
    engine.flight = flight
    assert not flight.enabled  # kill-switch re-checked per query
    result = engine.search("machine learning", k=1)
    # Plain PhaseTimer (not the tracing subclass), no query id, no
    # record committed: byte-identical to the seed hot path.
    assert type(result.timer) is PhaseTimer
    assert result.query_id is None
    assert flight.completed == 0
    monkeypatch.delenv("REPRO_OBS")
    assert flight.enabled
    engine.flight = None


# ---------------------------------------------------------------------------
# Per-query span slicing on a shared tracer
# ---------------------------------------------------------------------------
def test_query_spans_slices_by_ancestry():
    tracer = Tracer(enabled=True)
    with tracer.span("query") as first:
        with tracer.span("phase:expansion"):
            pass
    with tracer.span("query") as second:
        with tracer.span("phase:top_down"):
            pass
    first_slice = query_spans(tracer, first)
    assert {span.name for span in first_slice} == {"query", "phase:expansion"}
    second_slice = query_spans(tracer, second)
    assert {span.name for span in second_slice} == {"query", "phase:top_down"}
    trace = spans_to_chrome_trace(
        [
            {
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "tid": span.tid,
                "thread_name": span.thread_name,
                "start_ns": span.start_ns,
                "duration_ns": span.duration_ns,
                "attrs": dict(span.attrs),
            }
            for span in first_slice
        ]
    )
    validate_chrome_trace(trace)


# ---------------------------------------------------------------------------
# Cross-process stitching
# ---------------------------------------------------------------------------
def test_stitch_worker_spans_unit():
    tracer = Tracer(enabled=True)
    recorder = WorkerSpanRecorder(tracer.epoch_ns)
    with recorder.span("worker_chunk", level=1, chunk_size=4):
        with recorder.span("attach"):
            pass
    buffer = recorder.payload()
    with tracer.span("process_pool.map") as dispatch:
        pass
    stitch_worker_spans(tracer, dispatch, [buffer, None])
    spans = {span.name: span for span in tracer.finished_spans()}
    chunk = spans["worker_chunk"]
    attach = spans["attach"]
    assert chunk.parent_id == dispatch.span_id
    assert attach.parent_id == chunk.span_id
    assert chunk.attrs["level"] == 1
    assert chunk.attrs["chunk_size"] == 4
    assert "worker_pid" in chunk.attrs
    assert chunk.thread_name.startswith("worker-")


@pytest.mark.skipif(
    not ProcessPoolBackend.is_supported(), reason="fork unavailable"
)
def test_process_tier_record_contains_stitched_worker_spans(tiny_kb):
    graph, _ = tiny_kb
    engine = KeywordSearchEngine(
        graph, backend=ProcessPoolBackend(graph, n_processes=2)
    )
    flight = FlightRecorder(max_records=4, slow_ms=0)
    engine.flight = flight
    with engine.backend:
        # A multi-hop query: depth > 0 guarantees pool dispatches.
        result = engine.search("machine learning graph", k=3)
    assert result.depth > 0
    record = flight.get(result.query_id)
    spans = {span["span_id"]: span for span in record.spans}
    chunks = [s for s in record.spans if s["name"] == "worker_chunk"]
    assert chunks, "no worker_chunk spans captured from the pool workers"

    def parent_chain(span):
        names = []
        while span["parent_id"] in spans:
            span = spans[span["parent_id"]]
            names.append(span["name"])
        return names

    chain = parent_chain(chunks[0])
    assert chain[0] == "process_pool.map"
    assert chain[-1] == "query"
    pids = {span["attrs"]["worker_pid"] for span in chunks}
    assert pids  # recorded in the worker processes
    validate_chrome_trace(record.chrome_trace())
