"""Traced in-process session shared by every workload's ``--trace 1`` run.

For each query, four executions are interleaved (rotating which goes
first, so cache warmth favours none of them):

* ``engine.search`` with no recorder attached — the untraced baseline;
* the traced replay (:mod:`replay`);
* ``engine.search`` with a ``FlightRecorder`` attached;
* ``SearchService.handle_path`` on the same engine, as the HTTP handler
  calls it, with spans around the handler, ``engine.search`` and
  ``answer_payload``.

``trace.overhead_ratio`` is traced replay time over untraced time and
``obs.flight_overhead_ratio`` is flight-recorded time over untraced time,
each the median of the per-query ratios: whichever execution of a query
runs first pays its cold misses, and with a heavy tail a ratio of sums
would mostly say which step went first for the few slowest queries.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

from harness import median
from reference import signature_of_graph, signature_of_payload, signature_of_result
from replay import ROOT_SPAN, QueryCounts, Replayer, layer_stats, per_layer_metrics
from spans import SpanRecorder

#: Self times may differ from the traced query time by float rounding only.
GAP_TOLERANCE_S = 1e-6

STEPS = ("plain", "traced", "flight", "service")


class ServiceProbe:
    """An in-process ``SearchService`` over the session's engine.

    The service records every query in its own ``FlightRecorder``, as
    served queries are; the engine carries that recorder only while the
    service is handling a request.
    """

    def __init__(self, engine, recorder: SpanRecorder) -> None:
        from repro.obs.flight import FlightRecorder
        from repro.service import SearchService

        self.engine = engine
        self.recorder = recorder
        self.service = SearchService(engine, flight=FlightRecorder())
        engine.flight = None
        self.qid = 0
        render = self.service.answer_payload

        def traced_render(answer):
            with recorder.span("service.render", self.qid):
                return render(answer)

        self.service.answer_payload = traced_render

    def handle(self, query: str, k: int, alpha: float, qid: int) -> Tuple[int, str]:
        engine = self.engine
        search = engine.search
        span = self.recorder.span

        def traced_search(*args, **kwargs):
            with span("service.engine", qid):
                return search(*args, **kwargs)

        self.qid = qid
        engine.search = traced_search
        engine.flight = self.service.flight
        try:
            with span("service.handle", qid):
                status, _, body = self.service.handle_path(
                    "/search?" + urlencode({"q": query, "k": k, "alpha": alpha})
                )
        finally:
            del engine.search  # back to the class method
            engine.flight = None
        return status, body


def service_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-request means of the service spans, in ms."""
    own = recorder.self_times()
    totals = {"handle": 0.0, "engine": 0.0, "render": 0.0, "dispatch": 0.0}
    requests = 0
    for span in recorder.spans:
        if span.name == "service.handle":
            requests += 1
            totals["handle"] += span.duration
            totals["dispatch"] += own[span.span_id]
        elif span.name == "service.engine":
            totals["engine"] += span.duration
        elif span.name == "service.render":
            totals["render"] += span.duration
    n = max(requests, 1)
    return {f"service.{name}_ms": value * 1e3 / n for name, value in totals.items()}


@dataclass
class SessionResult:
    metrics: Dict[str, float]
    #: (query, signature of the untraced engine.search answer)
    observed: List[Tuple[str, Optional[list]]] = field(default_factory=list)
    #: Queries whose replay or service answer ranked differently from
    #: engine.search.
    replay_mismatches: List[str] = field(default_factory=list)
    #: Largest |Σ self times − traced query time| in seconds.
    max_gap_s: float = 0.0
    errors: int = 0


def traced_session(
    engine,
    queries: List[str],
    k: int,
    alpha: float,
    recorder: SpanRecorder,
) -> SessionResult:
    """Run the interleaved session over every query of ``queries``."""
    from repro.obs.flight import FlightRecorder

    replayer = Replayer(engine, recorder)
    service_recorder = SpanRecorder()
    probe = ServiceProbe(engine, service_recorder)
    flight = FlightRecorder()
    trace_ratios: List[float] = []
    flight_ratios: List[float] = []
    counts: Dict[int, QueryCounts] = {}
    result = SessionResult(metrics={})
    for position, query in enumerate(queries):
        qid = position + 1
        rotation = position % len(STEPS)
        plain_sig: Optional[list] = None
        others: List[Optional[list]] = []
        plain_s = flight_s = 0.0
        try:
            for step in STEPS[rotation:] + STEPS[:rotation]:
                if step == "plain":
                    start = time.perf_counter()
                    answer = engine.search(query, k=k, alpha=alpha)
                    plain_s = time.perf_counter() - start
                    plain_sig = signature_of_result(answer)
                elif step == "traced":
                    ranked, counts[qid] = replayer.run(query, k, alpha, qid)
                    others.append([signature_of_graph(g, g.score) for g in ranked])
                elif step == "flight":
                    engine.flight = flight
                    try:
                        start = time.perf_counter()
                        engine.search(query, k=k, alpha=alpha)
                        flight_s = time.perf_counter() - start
                    finally:
                        engine.flight = None
                else:
                    status, body = probe.handle(query, k, alpha, qid)
                    others.append(
                        signature_of_payload(json.loads(body)) if status == 200 else None
                    )
            trace_ratios.append(recorder.roots(ROOT_SPAN)[qid] / plain_s)
            flight_ratios.append(flight_s / plain_s)
        except Exception:  # noqa: BLE001 - any failure is a counted error
            result.errors += 1
        result.observed.append((query, plain_sig))
        if any(other != plain_sig for other in others) or len(others) != 2:
            result.replay_mismatches.append(query)
    stats = layer_stats(recorder, counts)
    result.max_gap_s = stats.max_gap_s
    result.metrics = per_layer_metrics(stats)
    result.metrics.update(service_metrics(service_recorder))
    result.metrics["trace.overhead_ratio"] = median(trace_ratios) if trace_ratios else 0.0
    result.metrics["obs.flight_overhead_ratio"] = median(flight_ratios) if flight_ratios else 0.0
    return result
