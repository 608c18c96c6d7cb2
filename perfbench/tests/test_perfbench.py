"""Fast checks of the benchmark's own machinery (a few seconds in all).

Run from the checkout root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest

import harness
from reference import count_mismatches, shards, signature_of_payload, signature_of_result
from replay import Replayer, layer_stats, per_layer_metrics
from spans import SpanRecorder

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def engine():
    from repro.core.engine import KeywordSearchEngine
    from repro.graph.generators import WikiKBConfig, wiki_like_kb
    from repro.parallel import VectorizedBackend

    config = WikiKBConfig(
        name="tiny", seed=7, n_papers=300, n_people=150, n_misc=150, n_venues=10, n_orgs=10
    )
    graph, _ = wiki_like_kb(config)
    return KeywordSearchEngine(graph, backend=VectorizedBackend())


@pytest.fixture(scope="module")
def queries(engine):
    from repro.eval.queries import KeywordWorkload

    sampler = KeywordWorkload(engine.index, seed=3)
    return [sampler.sample_query(knum) for knum in (2, 3, 4, 3, 2, 5)]


def test_benchmark_json_follows_the_contract():
    spec = harness.benchmark_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == ["knum8-top20", "store-x5-short"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_unmeasurable_phases_are_not_published():
    spec = json.dumps(harness.benchmark_spec())
    assert "enqueuing_frontiers" not in spec
    assert "identifying_central_nodes" not in spec


def test_seeded_wrong_answer_is_caught(engine, queries):
    query = queries[1]
    expected = {query: signature_of_result(engine.search(query, k=5))}
    good = signature_of_result(engine.search(query, k=5))
    assert count_mismatches([(query, good)], expected) == 0

    wrong_score = json.loads(json.dumps(good))
    wrong_score[0][4] = math.nextafter(wrong_score[0][4], math.inf)
    dropped_edge = json.loads(json.dumps(good))
    dropped_edge[-1][3] = dropped_edge[-1][3][:-1] or [[0, 0]]
    swapped = list(reversed(good)) if len(good) > 1 else []
    assert count_mismatches(
        [(query, wrong_score), (query, dropped_edge), (query, swapped), (query, None)],
        expected,
    ) == 4


def test_http_payload_signature_equals_engine_signature(engine, queries):
    from repro.service import SearchService

    service = SearchService(engine)
    try:
        for query in queries:
            status, payload = service.handle_search(query, k=5, alpha=0.1)
            assert status == 200
            wire = json.loads(json.dumps(payload))
            assert signature_of_payload(wire) == signature_of_result(engine.search(query, k=5))
    finally:
        engine.flight = None


def _native_kernel_loaded() -> bool:
    from repro.parallel.vectorized import _native_kernel

    return _native_kernel() is not None


@pytest.mark.skipif(
    not _native_kernel_loaded(), reason="the shared-buffer race needs the native kernel"
)
@pytest.mark.xfail(
    reason="VectorizedBackend.run_level keeps its level output buffers in one "
    "per-instance attribute and the native call releases the GIL, so "
    "concurrent searches on one engine (create_server's threads) overwrite "
    "each other's levels; whether two threads overlap depends on the host",
)
def test_concurrent_searches_on_one_engine_agree(engine, queries):
    expected = {q: signature_of_result(engine.search(q, k=5)) for q in queries}
    wrong = []

    def client():
        for query in queries * 6:
            if signature_of_result(engine.search(query, k=5)) != expected[query]:
                wrong.append(query)

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert wrong == []


def test_traced_replay_ranks_like_search(engine, queries):
    recorder = SpanRecorder()
    replayer = Replayer(engine, recorder)
    counts = {}
    for qid, query in enumerate(queries, start=1):
        ranked, counts[qid] = replayer.run(query, 5, 0.1, qid)
        replay = [[g.central_node, g.depth, sorted(g.nodes), sorted(map(list, g.edges)), g.score]
                  for g in ranked]
        assert replay == signature_of_result(engine.search(query, k=5, alpha=0.1))
    stats = layer_stats(recorder, counts)
    assert stats.max_gap_s < 1e-6
    metrics = per_layer_metrics(stats)
    assert metrics["top_down.extracted"] >= metrics["top_down.kept_ratio"] > 0
    assert metrics["text.source_nodes"] > 0 and metrics["bottom_up.levels"] >= 1


def test_self_times_cover_the_root_exactly():
    recorder = SpanRecorder()
    with recorder.span("query", 1):
        with recorder.span("a", 1):
            time.sleep(0.002)
            with recorder.span("b", 1):
                time.sleep(0.001)
        time.sleep(0.001)
    own = recorder.self_by_query()[1]
    root = recorder.roots("query")[1]
    assert abs(sum(own.values()) - root) < 1e-9
    assert own["b"] >= 0.001 and own["a"] >= 0.002 and own["query"] >= 0.001


def test_percentiles_and_tail_sample_count():
    values = list(range(1, 201))
    assert harness.percentile(values, 50) == 100
    assert harness.percentile(values, 95) == 190
    assert harness.samples_beyond(200, 95) == 10
    assert harness.samples_beyond(199, 95) == 9
    assert harness.median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_reference_shards_put_the_costliest_query_alone():
    split = shards(["a", "b", "c", "d", "e"], {"c": 9.0, "a": 1.0, "b": 1.0, "d": 1.0})
    assert sorted(map(sorted, split)) == [["a", "b", "d", "e"], ["c"]]
    assert sorted(map(len, shards(list("abcdef"), {}))) == [3, 3]


def test_host_slowdown_reads_the_probes_near_an_interval():
    probe = harness.HostProbe()
    probe.at = [0.0, 1.0, 5.0, 9.0]
    probe.took = [x * harness.PROBE_REFERENCE_S for x in (1.0, 2.0, 4.0, 8.0)]
    e = harness.PROBE_ELASTICITY
    assert probe.slowdown(4.5, 5.5) == pytest.approx(4.0 ** e)
    assert probe.slowdown(0.5, 1.0) == pytest.approx(1.5 ** e)
    # No sample within the window: the nearest one to the start.
    assert probe.slowdown(2.5, 2.6) == pytest.approx(2.0 ** e)
    assert probe.slowdown() == pytest.approx(3.0 ** e)
    probe.sample()
    assert len(probe.took) == 5 and probe.took[-1] > 0


def test_traced_runs_take_a_fixed_prefix_in_the_seed_order(engine):
    from workloads import KNUM8, population, population_size, run_queries, traced_size

    everything = population(KNUM8, engine.index, population_size(KNUM8, 5))
    prefix = everything[: traced_size(KNUM8, 5)]
    one, warm = run_queries(KNUM8, engine.index, 5, seed=1, trace=True)
    two, _ = run_queries(KNUM8, engine.index, 5, seed=2, trace=True)
    assert sorted(one) == sorted(two) == sorted(prefix) and one != two
    untraced, _ = run_queries(KNUM8, engine.index, 5, seed=1, trace=False)
    assert sorted(untraced) == sorted(everything) and warm not in everything


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knum8-top20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
