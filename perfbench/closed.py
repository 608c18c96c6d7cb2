"""Closed-loop workloads: one in-process client calling
``KeywordSearchEngine.search`` back to back (``knum8-top20``,
``store-x5-short``)."""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
from harness import HostProbe, emit, median, peak_rss_mb, percentile, samples_beyond
from reference import (
    count_mismatches,
    digest,
    first_mismatch,
    reference_answers,
    signature_of_result,
)
from spans import SpanRecorder
from workloads import (
    WORKLOADS,
    Setup,
    Workload,
    build_store,
    ensure_store,
    load_graph,
    population,
    population_size,
    run_queries,
    set_up,
)

#: A timed window never runs longer than this; queries it did not reach
#: count as failed (unfinished).
WINDOW_CAP_S = 110.0
#: Set-up is measured this many times per run: this process and fresh ones.
SETUP_SAMPLES = 3
#: Probe blocks that time the host after a set-up.
SETUP_PROBES = 5
#: A closed-loop window probes the host after this much time in search.
PROBE_INTERVAL_S = 0.25


def host_setup_s(setup: Setup) -> float:
    """``setup.setup_s`` at the reference host's speed, the host timed by
    probes right after the set-up."""
    probe = HostProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    return setup.setup_s / probe.slowdown()


def cache_marker(seconds: float) -> Path:
    """Present once ``build_caches(seconds)`` has completed."""
    return harness.CACHE_DIR / f"prepared-{harness.source_digest()}-{seconds:g}"


def prepare(workload: Workload, seconds: float) -> bool:
    """Make sure every workload's caches for a ``--seconds`` budget exist,
    building them in a fresh process if not. Returns whether it built."""
    if cache_marker(seconds).exists():
        return False
    subprocess.run(
        [sys.executable, str(harness.ROOT / "perfbench" / "run.py"),
         "--role", "prepare", "--workload", workload.name, "--seconds", repr(seconds)],
        env=harness.subprocess_env(),
        cwd=str(harness.ROOT),
        check=True,
    )
    return True


def build_caches(seconds: float) -> None:
    """The x5 store and the reference answers of every workload's
    population (``run.py --role prepare``). The first run in a checkout
    pays for all workloads, so no later run of any workload waits for
    them; the x5 store's reference answers alone take over a minute."""
    from repro.text.inverted_index import InvertedIndex

    ensure_store()
    for workload in WORKLOADS.values():
        index = InvertedIndex.from_graph(load_graph(workload))
        reference_answers(
            workload.name, population(workload, index, population_size(workload, seconds))
        )
    cache_marker(seconds).touch()


def setup_sample_s(workload: Workload) -> float:
    """Set-up time of a fresh process (``run.py --role setup``)."""
    out = subprocess.run(
        [sys.executable, str(harness.ROOT / "perfbench" / "run.py"),
         "--role", "setup", "--workload", workload.name],
        env=harness.subprocess_env(),
        cwd=str(harness.ROOT),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return float(out.strip().splitlines()[-1])


def first_query(engine, query: str, workload: Workload) -> Dict[str, float]:
    """Time the process's first query with page-fault deltas."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    engine.search(query, k=workload.k, alpha=workload.alpha)
    elapsed = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "store.first_query_ms": elapsed * 1e3,
        "store.first_query_minflt": float(after.ru_minflt - before.ru_minflt),
        "store.first_query_majflt": float(after.ru_majflt - before.ru_majflt),
        "store.resident_bytes": float(engine.graph.memory_report()["resident_nbytes"]),
    }


def run(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> Tuple[bool, int, int, Dict[str, float]]:
    """One run; returns (correct, attempted, failed, metrics)."""
    built = prepare(workload, seconds)
    setup = set_up(workload)
    engine = setup.engine
    # Caches built during this process would inflate its own set-up sample.
    setup_samples = [] if built else [host_setup_s(setup)]
    ordered, warm = run_queries(workload, engine.index, seconds, seed, trace)
    if trace:
        return _traced(workload, seed, engine, setup, ordered, warm)

    engine.search(warm, k=workload.k, alpha=workload.alpha)
    probe = HostProbe()
    gc.collect()
    probe.sample()
    since_probe = 0.0
    starts: List[float] = []
    latencies: List[float] = []
    observed: List[Tuple[str, Optional[str]]] = []
    errors = 0
    cap = time.perf_counter() + WINDOW_CAP_S
    for query in ordered:
        if time.perf_counter() >= cap:
            break
        if since_probe >= PROBE_INTERVAL_S:
            probe.sample()
            since_probe = 0.0
        start = time.perf_counter()
        starts.append(start)
        try:
            result = engine.search(query, k=workload.k, alpha=workload.alpha)
        except Exception:  # noqa: BLE001 - a failed query is counted
            result = None
            errors += 1
        latencies.append(time.perf_counter() - start)
        since_probe += latencies[-1]
        # Only a digest is kept, so answers held for checking neither grow
        # the heap nor slow the garbage collector during the window.
        signature = signature_of_result(result) if result is not None else None
        observed.append((query, digest(signature) if signature is not None else None))
        del result
    probe.sample()
    busy_s = sum(latencies)
    rss_mb = peak_rss_mb()
    harness.write_json(
        harness.OUT_DIR / f"latencies-{workload.name}-{seed}.json",
        {
            "latencies": [
                [query, start, latency]
                for (query, _), start, latency in zip(observed, starts, latencies)
            ],
            "probes": [probe.at, probe.took],
        },
    )

    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample_s(workload))
    reference = reference_answers(
        workload.name,
        [q for q, _ in observed],
        cost={query: latency for (query, _), latency in zip(observed, latencies)},
    )
    expected = {query: digest(signature) for query, signature in reference.items()}
    mismatches = count_mismatches(observed, expected)
    unfinished = len(ordered) - len(observed)
    failed = mismatches + unfinished
    if mismatches:
        first = first_mismatch(observed, expected)
        emit(f"MISMATCH vs reference: {mismatches} answers, first {first!r}")

    completed = len(observed) - errors
    raw_ms = [x * 1e3 for x in latencies]
    ms = [
        x / probe.slowdown(start, start + x / 1e3) for start, x in zip(starts, raw_ms)
    ]
    emit(
        f"window: {len(observed)} queries, {busy_s:.2f}s in search, "
        f"{samples_beyond(len(ms), 95)} samples beyond p95, "
        f"failed {failed} (mismatch {mismatches}, error {errors}, unfinished {unfinished})"
    )
    emit(
        f"host slowdown {probe.slowdown():.4f} ({len(probe.took)} probes, median "
        f"{median(probe.took) * 1e3:.4f} ms); as measured: {completed / busy_s:.4g} q/s, "
        f"p50 {percentile(raw_ms, 50):.4g} ms, p95 {percentile(raw_ms, 95):.4g} ms"
    )
    metrics = {
        "setup_s": median(setup_samples),
        "throughput_qps": completed * 1e3 / sum(ms),
        "latency_p50_ms": percentile(ms, 50),
        "latency_p95_ms": percentile(ms, 95),
        "peak_rss_mb": rss_mb,
    }
    emit(f"setup samples (s, at reference speed): {', '.join(f'{s:.3f}' for s in setup_samples)}")
    return failed == 0, len(ordered), failed, metrics


def _traced(workload, seed, engine, setup, ordered, warm):
    from session import GAP_TOLERANCE_S, traced_session

    metrics: Dict[str, float] = {
        "store.index_ms": setup.steps["index"] * 1e3,
        "store.weights_ms": setup.steps["weights"] * 1e3,
    }
    if workload.graph == "store":
        metrics["store.open_ms"] = setup.steps["graph"] * 1e3
        scratch = harness.CACHE_DIR / f"build-probe-{seed}.csrstore"
        metrics["store.build_s"] = build_store(scratch)
        scratch.unlink()
    else:
        # No store: the in-RAM graph is generated, not opened.
        metrics["store.open_ms"] = 0.0
        metrics["store.build_s"] = setup.steps["graph"]
    metrics.update(first_query(engine, warm, workload))

    recorder = SpanRecorder()
    session = traced_session(engine, ordered, workload.k, workload.alpha, recorder)
    recorder.dump(harness.OUT_DIR / f"spans-{workload.name}-{seed}.json")
    metrics.update(session.metrics)
    expected = reference_answers(workload.name, [q for q, _ in session.observed])
    mismatches = count_mismatches(session.observed, expected)
    replay_bad = len(session.replay_mismatches)
    gap_ok = session.max_gap_s <= GAP_TOLERANCE_S
    emit(
        f"traced session: {len(session.observed)} queries, reference mismatches {mismatches}, "
        f"replay/service rank mismatches {replay_bad}, errors {session.errors}, "
        f"max |self-sum - traced| {session.max_gap_s * 1e6:.3f}us"
    )
    failed = mismatches + replay_bad
    correct = failed == 0 and session.errors == 0 and gap_ok
    return correct, len(session.observed), failed, metrics
