"""Workload definitions: which graph, which queries, which parameters.

Each query population is drawn once from the program's own
``KeywordWorkload`` sampler with a constant seed, so every run of a
workload asks the same questions; ``--seed`` only orders them. Per-query
cost is heavy-tailed on both graphs (coefficient of variation about
2.7), so a population redrawn per seed would move ``throughput_qps`` by
30-50 % between seeds on composition alone; see README.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from harness import CACHE_DIR, process_age_s, source_digest

#: Constant seed of every query population (not the run's ``--seed``).
POPULATION_SEED = 0
#: Seed of the single warm-up query drawn outside every population.
WARMUP_SEED = 1
#: A traced query costs about this many untraced ones.
TRACED_COST = 5


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"ram"``: wiki2018-sim generated in memory;
    #: ``"store"``: wiki2018-sim-x5 opened from a memory-mapped store.
    graph: str
    knum: Tuple[int, int]  # inclusive range of keywords per query
    k: int
    alpha: float = 0.1
    #: Distinct queries per second of ``--seconds`` budget.
    queries_per_second: float = 0.0


KNUM8 = Workload("knum8-top20", "ram", knum=(8, 8), k=20, queries_per_second=300 / 25)
STORE = Workload("store-x5-short", "store", knum=(3, 3), k=5, queries_per_second=400 / 25)
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (KNUM8, STORE)}


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def store_path() -> Path:
    """The wiki2018-sim-x5 store, built once per program version."""
    from repro.graph.generators import pool_sweep_config

    config = pool_sweep_config()
    return CACHE_DIR / f"{config.name}-{config.seed}-{source_digest()}.csrstore"


def ensure_store() -> None:
    """Build the x5 store if it is missing. Not part of any timed window."""
    path = store_path()
    if not path.exists():
        build_store(path)


def build_store(path: Path) -> float:
    """``build_wiki_kb_store`` into ``path`` (atomically); returns seconds."""
    from repro.graph.generators import build_wiki_kb_store, pool_sweep_config

    path.parent.mkdir(parents=True, exist_ok=True)
    spill = path.parent / f"spill-{time.monotonic_ns()}"
    spill.mkdir()
    tmp = path.with_name(path.name + ".tmp")
    try:
        start = time.perf_counter()
        build_wiki_kb_store(tmp, pool_sweep_config(), spill_dir=str(spill))
        seconds = time.perf_counter() - start
        tmp.replace(path)
    finally:
        for leftover in spill.glob("*"):
            leftover.unlink()
        spill.rmdir()
        if tmp.exists():
            tmp.unlink()
    return seconds


def load_graph(workload: Workload):
    """The workload's graph: generated in RAM, or opened with mmap."""
    if workload.graph == "ram":
        from repro.graph.generators import wiki2018_config, wiki_like_kb

        graph, _ = wiki_like_kb(wiki2018_config())
        return graph
    from repro.graph.store import open_store

    return open_store(store_path(), mmap=True)


@dataclass
class Setup:
    engine: object
    #: Seconds from process start until the engine could answer.
    setup_s: float
    #: Per-step seconds: graph, index, weights, distance, engine.
    steps: Dict[str, float]


def set_up(workload: Workload, reference: bool = False) -> Setup:
    """Graph → inverted index → Eq. 2 weights → sampled A → engine.

    The engine under test runs the program defaults on the vectorized
    backend (native kernel when it loads). ``reference=True`` builds the
    slow reference instead: sequential backend, NumPy stage two.
    """
    from repro.core.engine import EngineConfig, KeywordSearchEngine
    from repro.core.weights import node_weights
    from repro.graph.sampling import estimate_average_distance
    from repro.parallel import SequentialBackend, VectorizedBackend
    from repro.text.inverted_index import InvertedIndex

    steps: Dict[str, float] = {}
    clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        steps[name] = now - clock
        clock = now

    graph = load_graph(workload)
    lap("graph")
    index = InvertedIndex.from_graph(graph)
    lap("index")
    weights = node_weights(graph)
    lap("weights")
    config = EngineConfig(top_down_native=False) if reference else EngineConfig()
    distance = estimate_average_distance(
        graph, n_pairs=config.distance_sample_pairs, seed=config.seed
    ).average
    lap("distance")
    engine = KeywordSearchEngine(
        graph,
        backend=SequentialBackend() if reference else VectorizedBackend(),
        config=config,
        index=index,
        weights=weights,
        average_distance=distance,
    )
    lap("engine")
    return Setup(engine=engine, setup_s=process_age_s(), steps=steps)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def population(workload: Workload, index, size: int) -> List[str]:
    """``size`` distinct queries from ``KeywordWorkload(seed=0)``; the
    keyword count of each is drawn uniformly from ``workload.knum``."""
    from repro.eval.queries import KeywordWorkload

    sampler = KeywordWorkload(index, seed=POPULATION_SEED)
    counts = np.random.default_rng(POPULATION_SEED)
    lo, hi = workload.knum
    queries: List[str] = []
    seen = set()
    while len(queries) < size:
        query = sampler.sample_query(int(counts.integers(lo, hi + 1)))
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


def population_size(workload: Workload, seconds: float) -> int:
    """Queries an untraced run answers for a ``--seconds`` budget."""
    return max(20, int(round(workload.queries_per_second * seconds)))


def traced_size(workload: Workload, seconds: float) -> int:
    """Queries a traced run answers: the first of the population, since
    each runs four ways and the replay costs extra."""
    return max(10, int(round(workload.queries_per_second * seconds / TRACED_COST)))


def warmup_query(workload: Workload, index, avoid: List[str]) -> str:
    """One query outside the population: warms the process (kernel load,
    first page-ins) without pre-answering any measured query."""
    from repro.eval.queries import KeywordWorkload

    sampler = KeywordWorkload(index, seed=WARMUP_SEED)
    taken = set(avoid)
    while True:
        query = sampler.sample_query(workload.knum[1])
        if query not in taken:
            return query


def run_queries(
    workload: Workload, index, seconds: float, seed: int, trace: bool
) -> Tuple[List[str], str]:
    """The run's queries in the seed's order, and its warm-up query.

    A traced run takes a fixed prefix of the population, so every seed and
    every commit traces the same queries; the seed only orders them.
    """
    queries = population(workload, index, population_size(workload, seconds))
    warm = warmup_query(workload, index, queries)
    if trace:
        queries = queries[: traced_size(workload, seconds)]
    permutation = np.random.default_rng(seed).permutation(len(queries))
    return [queries[int(i)] for i in permutation], warm
