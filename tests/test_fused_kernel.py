"""Cross-backend parity and schema tests for the fused expansion kernel.

The fused single-pass kernel (``repro.parallel.vectorized``) replaces q
sequential per-column passes with one pass over the (E × q) work grid,
optionally through a runtime-compiled C tier. Theorem V.2 says every
scheduling of the idempotent writes converges to the same M — so every
backend, and both kernel tiers, must be *bitwise* identical on M, the
Central Node set and the search depth. This module fuzzes that claim on
a population of hub-heavy wiki-shaped KBs and smoke-tests the
``BENCH_kernel.json`` microbenchmark plumbing at tiny scale.
"""

import json

import numpy as np
import pytest

from repro.bench.kernel_microbench import (
    LegacyPerColumnBackend,
    run_kernel_microbench,
    tiny_config,
    validate_payload,
    write_payload,
)
from repro.core.activation import activation_levels
from repro.core.bottom_up import BottomUpSearch
from repro.core.weights import node_weights
from repro.graph.generators import WikiKBConfig, wiki_like_kb
from repro.parallel import SequentialBackend, ThreadPoolBackend, VectorizedBackend

N_FUZZ_GRAPHS = 20


def _fuzz_kb(seed: int):
    """A small hub-heavy wiki-shaped KB; venues/orgs are the hubs."""
    config = WikiKBConfig(
        name=f"fuzz-{seed}",
        seed=seed,
        n_papers=60,
        n_people=30,
        n_misc=30,
        n_venues=8,
        n_orgs=8,
    )
    graph, _ = wiki_like_kb(config)
    return graph


def _fuzz_problem(graph, seed: int, q: int):
    """Keyword node sets, activation and k for one fuzz case."""
    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    sets = [
        np.unique(rng.integers(0, n, size=int(rng.integers(1, 6))))
        for _ in range(q)
    ]
    if seed % 2:
        # Real Penalty-and-Reward levels: hubs activate late, which
        # exercises the blocked/retry protocol (Algorithm 2 lines 18-20).
        alpha = (0.05, 0.1, 0.4)[seed % 3]
        activation = activation_levels(node_weights(graph), 3.0, alpha)
    else:
        activation = np.zeros(n, dtype=np.int32)
    k = int(rng.integers(1, 12))
    return sets, activation, k


def _run_backend(backend, graph, sets, activation, k):
    with backend:
        return BottomUpSearch(graph, backend=backend).run(sets, activation, k)


@pytest.mark.parametrize("seed", range(N_FUZZ_GRAPHS))
def test_backends_bitwise_identical_on_wiki_graphs(seed):
    """Sequential / ThreadPool / fused Vectorized (both tiers) agree.

    q cycles through 2..8 so every SWAR lane count of the packed
    word path is hit across the population.
    """
    graph = _fuzz_kb(seed)
    q = 2 + seed % 7
    sets, activation, k = _fuzz_problem(graph, seed * 31 + 7, q)

    reference = _run_backend(
        SequentialBackend(), graph, sets, activation, k
    )
    contenders = {
        "threads": ThreadPoolBackend(n_threads=3),
        "vectorized": VectorizedBackend(),
        "vectorized-numpy": VectorizedBackend(native=False),
    }
    for name, backend in contenders.items():
        result = _run_backend(backend, graph, sets, activation, k)
        assert np.array_equal(
            result.state.matrix, reference.state.matrix
        ), f"{name}: M diverged on seed {seed} (q={q})"
        assert sorted(result.central_nodes) == sorted(
            reference.central_nodes
        ), f"{name}: central nodes diverged on seed {seed}"
        assert result.depth == reference.depth, name


def test_backends_agree_on_wide_query():
    """q > 8 falls off the packed-word path; the unpacked path must match."""
    graph = _fuzz_kb(99)
    sets, activation, k = _fuzz_problem(graph, 99, q=11)
    reference = _run_backend(SequentialBackend(), graph, sets, activation, k)
    fused = _run_backend(VectorizedBackend(), graph, sets, activation, k)
    assert np.array_equal(fused.state.matrix, reference.state.matrix)
    assert sorted(fused.central_nodes) == sorted(reference.central_nodes)
    assert fused.depth == reference.depth


def test_legacy_baseline_matches_sequential():
    """The measured baseline must itself be a faithful seed copy."""
    graph = _fuzz_kb(5)
    sets, activation, k = _fuzz_problem(graph, 123, q=6)
    reference = _run_backend(SequentialBackend(), graph, sets, activation, k)
    legacy = _run_backend(LegacyPerColumnBackend(), graph, sets, activation, k)
    assert np.array_equal(legacy.state.matrix, reference.state.matrix)
    assert sorted(legacy.central_nodes) == sorted(reference.central_nodes)


# ---------------------------------------------------------------------------
# Microbenchmark plumbing (tiny scale, fast)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_payload():
    from repro.bench.datasets import build_dataset

    dataset = build_dataset(tiny_config())
    return run_kernel_microbench(
        dataset=dataset,
        knum=4,
        n_queries=2,
        repeats=1,
        topk=5,
        pool_tnums=(1, 2),
    )


def test_microbench_payload_schema(tiny_payload):
    validate_payload(tiny_payload)  # raises on any schema violation
    assert tiny_payload["answers_identical"] is True
    assert tiny_payload["knum"] == 4
    assert isinstance(tiny_payload["native_kernel"], bool)
    counters = tiny_payload["fused"]["counters"]
    assert counters["edges_gathered"] > 0
    assert counters["pairs_hit"] > 0
    if tiny_payload["native_kernel"]:
        # The A/B row pinned to the NumPy tier rides along.
        assert tiny_payload["fused_numpy"]["counters"]["pairs_hit"] > 0


def test_microbench_whole_level_row(tiny_payload):
    """The whole-level side must report real work: its counters come
    from ``run_level`` outcomes, not the step-path ``last_counters``."""
    whole = tiny_payload["whole_level"]
    assert whole["counters"]["edges_gathered"] > 0
    assert whole["counters"]["pairs_hit"] > 0
    phases = whole["phases"]
    assert phases["total_ms"] >= phases["expansion_ms"]
    # Whole-level answers matched the seed baseline (folded into the
    # payload-level flag).
    assert tiny_payload["answers_identical"] is True
    assert tiny_payload["speedup_whole_level"] > 0


def test_microbench_warm_pool_entry(tiny_payload):
    from repro.parallel.processes import ProcessPoolBackend

    if not ProcessPoolBackend.is_supported():
        assert "warm_pool" not in tiny_payload
        pytest.skip("fork-based process pools unavailable")
    warm_pool = tiny_payload["warm_pool"]
    assert [row["n_workers"] for row in warm_pool["sweep"]] == [1, 2]
    # Warm workers must never have needed a respawn mid-sweep.
    assert all(row["respawns"] == 0 for row in warm_pool["sweep"])
    # Every row pairs warm reuse with the cold-spawn cost it amortizes.
    assert all(
        row["total_ms"] > 0 and row["cold_ms"] > 0 and row["warm_speedup"] > 0
        for row in warm_pool["sweep"]
    )
    assert warm_pool["host_cpus"] >= 1
    assert warm_pool["cold_spawn_ms"] > 0
    assert warm_pool["warm_ms"] > 0


def test_microbench_payload_roundtrip(tiny_payload, tmp_path):
    path = tmp_path / "BENCH_kernel.json"
    write_payload(tiny_payload, str(path))
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    validate_payload(on_disk)
    assert on_disk["dataset"] == tiny_payload["dataset"]


@pytest.mark.parametrize(
    "corruption, message",
    [
        ({"schema": "bogus/v0"}, "schema"),
        ({"knum": 0}, "knum"),
        ({"fused": {}}, "fused"),
        ({"speedup_expansion": -1.0}, "speedup_expansion"),
        ({"speedup_whole_level": 0}, "speedup_whole_level"),
        ({"answers_identical": "yes"}, "answers_identical"),
        ({"native_kernel": 1}, "native_kernel"),
        ({"whole_level": {}}, "whole_level"),
        ({"mmap_store": "fast"}, "mmap_store"),
        ({"warm_pool": {"sweep": []}}, "warm_pool"),
    ],
)
def test_validate_payload_rejects(tiny_payload, corruption, message):
    broken = dict(tiny_payload)
    broken.update(corruption)
    with pytest.raises(ValueError, match=message):
        validate_payload(broken)


def test_bench_kernel_cli_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_kernel.json"
    code = main(
        [
            "bench-kernel", "--scale", "tiny", "--knum", "3",
            "--queries", "1", "--repeats", "1", "--topk", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "kernel microbenchmark" in captured
    validate_payload(json.loads(out.read_text(encoding="utf-8")))
