"""Answer checking against the reference engine.

The reference is the same program on its slowest, simplest path: the
sequential expansion backend with the NumPy stage two
(``EngineConfig(top_down_native=False)``). Reference answers are computed
outside every timed window, in worker processes, and cached per program
version under ``perfbench/.cache``; a later run only computes queries the
cache lacks.

An answer matches when every ranked Central Graph agrees on central node,
depth, node set, edge set and the exact Eq. 6 score.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from harness import CACHE_DIR, ROOT, source_digest, subprocess_env, write_json

Signature = List[list]

#: Worker processes computing missing reference answers.
REFERENCE_WORKERS = 2


def signature_of_result(result) -> Signature:
    """Signature of a :class:`~repro.core.results.SearchResult`."""
    return [
        signature_of_graph(answer.graph, answer.score) for answer in result.answers
    ]


def signature_of_graph(graph, score: float) -> list:
    return [
        int(graph.central_node),
        int(graph.depth),
        sorted(int(node) for node in graph.nodes),
        sorted([int(a), int(b)] for a, b in graph.edges),
        float(score),
    ]


def signature_of_payload(payload: Dict) -> Signature:
    """Signature of a ``/search`` JSON payload."""
    return [
        [
            int(answer["central_node"]),
            int(answer["depth"]),
            sorted(int(node["id"]) for node in answer["nodes"]),
            sorted([int(e["source"]), int(e["target"])] for e in answer["edges"]),
            float(answer["score"]),
        ]
        for answer in payload["answers"]
    ]


def digest(signature: Signature) -> str:
    """Compact fingerprint of a signature (what a timed window keeps)."""
    return hashlib.sha256(json.dumps(signature).encode()).hexdigest()


def cache_path(workload_name: str) -> Path:
    return CACHE_DIR / f"reference-{workload_name}-{source_digest()}.json"


def _load(path: Path) -> Dict[str, Signature]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def reference_answers(
    workload_name: str,
    queries: Sequence[str],
    cost: Optional[Dict[str, float]] = None,
) -> Dict[str, Signature]:
    """Reference signatures for ``queries``, computing the missing ones.
    ``cost`` (seconds per query, as measured) balances the workers."""
    path = cache_path(workload_name)
    known = _load(path)
    missing = [q for q in dict.fromkeys(queries) if q not in known]
    if missing:
        known.update(_compute(workload_name, shards(missing, cost or {})))
        write_json(path, known)
    return {q: known[q] for q in queries}


def shards(queries: List[str], cost: Dict[str, float]) -> List[List[str]]:
    """Split ``queries`` over the workers, costliest first onto the least
    loaded one. Per-query cost is heavy-tailed: one query of a population
    can take a third of its time, and the first run of a workload must
    not wait for it on top of an even share."""
    loads = [0.0] * REFERENCE_WORKERS
    split: List[List[str]] = [[] for _ in range(REFERENCE_WORKERS)]
    for query in sorted(queries, key=lambda q: -cost.get(q, 0.0)):
        worker = loads.index(min(loads))
        split[worker].append(query)
        loads[worker] += cost.get(query, 0.0) + 1e-3
    return split


def _compute(workload_name: str, split: List[List[str]]) -> Dict[str, Signature]:
    workers = []
    for shard in split:
        if not shard:
            continue
        process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--role", "reference", "--workload", workload_name],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=subprocess_env(),
            cwd=str(ROOT),
            text=True,
        )
        process.stdin.write(json.dumps(shard))
        process.stdin.close()
        workers.append(process)
    answers: Dict[str, Signature] = {}
    for process in workers:
        out = process.stdout.read()
        process.stdout.close()
        if process.wait() != 0:
            raise RuntimeError("reference worker failed")
        answers.update(json.loads(out.strip().splitlines()[-1]))
    return answers


def reference_worker(workload, queries: Iterable[str]) -> Dict[str, Signature]:
    """Body of one reference worker process."""
    from workloads import set_up

    engine = set_up(workload, reference=True).engine
    return {
        query: signature_of_result(engine.search(query, k=workload.k, alpha=workload.alpha))
        for query in queries
    }


def count_mismatches(
    observed: Iterable[tuple], expected: Dict[str, Signature]
) -> int:
    """Number of (query, signature) pairs that differ from the reference;
    a ``None`` signature (no answer at all) is a mismatch."""
    return sum(
        1 for query, got in observed if got is None or got != expected[query]
    )


def first_mismatch(
    observed: Iterable[tuple], expected: Dict[str, Signature]
) -> Optional[str]:
    for query, got in observed:
        if got is None or got != expected[query]:
            return query
    return None
