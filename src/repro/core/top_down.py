"""Top-down processing: extraction, level-cover pruning, final ranking
(Section V-C, Algorithm 3).

Stage one leaves only Central Nodes and the node-keyword matrix M; no path
is stored. Stage two therefore *recovers* each Central Graph by walking
backwards from its Central Node using the hitting-level heuristics of
Theorem V.4, prunes redundant keyword carriers with the level-cover
strategy, removes containment-repetitive answers, scores what remains
(Eq. 6) and keeps the top k.

Extraction tracks (node, keyword) pairs so that a node extracted for
keyword ``i`` only pulls in its keyword-``i`` predecessors — exactly the
union of hitting paths that Definition 3 prescribes.

With the compiled kernel, :func:`process_top_down` runs extraction,
pruning, dedup and weighing for every candidate on arrays, and only the
top k become :class:`CentralGraph` objects (DESIGN.md §5).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Callable,
    ContextManager,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..instrumentation import PHASE_TOP_DOWN, PhaseTimer
from ..graph.csr import KnowledgeGraph
from ..parallel.vectorized import _native_kernel
from .central_graph import CentralGraph
from .scoring import (
    DEFAULT_LAMBDA,
    TopKHeap,
    central_graph_score,
    validate_lambda,
)
from .state import INFINITE_LEVEL, SearchState


class HittingDAG:
    """The Theorem V.4 qualified-predecessor relation, per keyword.

    For the pair ``(v_f, i)`` a neighbor ``v_n`` already hit in B_i
    qualifies as a predecessor — it expanded to ``v_f`` on a hitting path
    — exactly when (with ``h = M[·][i]`` and ``a`` the activation levels):

    * ``v_f`` contains keywords:   ``h_f = 1 + max(a_n, h_n)``
    * ``v_f`` contains none:       ``h_f = 1 + max(a_n, h_n, a_f − 1)``

    (the expander cannot move before its own activation; a non-keyword
    target additionally cannot be hit before its activation).

    The relation is independent of which Central Node is being extracted,
    so it is evaluated once per query as whole-array kernels over every
    (edge, keyword) pair, and the per-Central-Node extraction below just
    walks the precomputed predecessor lists.

    One correction on top of the bare Theorem V.4 equalities: a node that
    was identified as a Central Node stops expanding (Section III-B), so
    it cannot be the expander of a hit at any later level — a predecessor
    identified at level ℓ only qualifies for targets hit at level ≤ ℓ.
    Without this filter, extraction recovers paths the bottom-up search
    never walked (verified against the path-recording CPU-Par-d variant).

    Two tiers build the identical relation: the per-column NumPy passes
    below (always available, and the measured legacy baseline), and a
    single C sweep over the (edge, column) grid
    (:mod:`repro.parallel._native`, ``build_hitting_dag``) selected
    automatically when the compiled kernel is loaded. ``native=False``
    pins the NumPy build.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        state: SearchState,
        native: Optional[bool] = None,
    ) -> None:
        self.n_keywords = state.n_keywords
        self._indptr: List[np.ndarray] = []
        self._preds: List[np.ndarray] = []
        self._stacked: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._matrix: Optional[np.ndarray] = None
        self._n_nodes = graph.n_nodes
        self._local = threading.local()
        self._kernel = _native_kernel() if native is not False else None
        if (
            self._kernel is not None
            and state.matrix.flags.c_contiguous
            and self._build_native(graph, state)
        ):
            return
        self._build_numpy(graph, state)

    def _build_native(
        self, graph: KnowledgeGraph, state: SearchState
    ) -> bool:
        n = graph.n_nodes
        q = state.n_keywords
        adj = graph.adj
        n_edges = int(adj.indptr[n])
        out_indptr = np.empty((q, n + 1), dtype=np.int64)
        out_preds = np.empty((q, max(n_edges, 1)), dtype=np.int64)
        out_counts = np.zeros(q, dtype=np.int64)
        self._kernel.build_hitting_dag(
            adj.indptr,
            adj.indices,
            state.matrix.reshape(-1),
            q,
            state.activation,
            state.keyword_node.view(np.uint8),
            state.central_level,
            out_indptr.reshape(-1),
            out_preds.reshape(-1),
            out_counts,
        )
        # Compact the used prefixes into one stacked block (so the q x E
        # scratch is freed) shared by the per-column views and the
        # one-call-per-Central-Node extract_graph kernel.
        col_offsets = np.zeros(q + 1, dtype=np.int64)
        np.cumsum(out_counts, out=col_offsets[1:])
        preds_all = np.empty(max(int(col_offsets[-1]), 1), dtype=np.int64)
        for column in range(q):
            lo = int(col_offsets[column])
            hi = int(col_offsets[column + 1])
            preds_all[lo:hi] = out_preds[column, : hi - lo]
            self._indptr.append(out_indptr[column])
            self._preds.append(preds_all[lo:hi])
        self._stacked = (out_indptr, preds_all, col_offsets)
        self._matrix = state.matrix
        return True

    def _build_numpy(self, graph: KnowledgeGraph, state: SearchState) -> None:
        matrix = state.matrix
        activation = state.activation.astype(np.int64)
        indptr = graph.adj.indptr
        n = graph.n_nodes
        degrees = np.diff(indptr)
        flat_targets = np.repeat(np.arange(n, dtype=np.int64), degrees)
        flat_preds = graph.adj.indices.astype(np.int64)
        infinite = int(INFINITE_LEVEL)
        # A non-keyword target cannot have been hit before its activation.
        floor = np.where(state.keyword_node, 0, activation - 1)

        for column in range(state.n_keywords):
            target_levels = matrix[flat_targets, column].astype(np.int64)
            pred_levels = matrix[flat_preds, column].astype(np.int64)
            expander_levels = np.maximum(
                np.maximum(activation[flat_preds], pred_levels),
                floor[flat_targets],
            )
            qualified = (
                (target_levels != infinite)
                & (pred_levels != infinite)
                & (target_levels == expander_levels + 1)
            )
            # A Central Node identified at level ℓ never expands at ℓ or
            # later: it cannot have caused a hit at level > ℓ.
            pred_central_levels = state.central_level[flat_preds]
            qualified &= (pred_central_levels < 0) | (
                target_levels <= pred_central_levels
            )
            counts = np.bincount(flat_targets[qualified], minlength=n)
            column_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=column_indptr[1:])
            self._indptr.append(column_indptr)
            # flat arrays are grouped by target already, so masking keeps
            # each target's predecessors contiguous.
            self._preds.append(flat_preds[qualified])

    @property
    def native(self) -> bool:
        """Whether the compiled stacked build is in use, and with it the
        array-native stage two (:meth:`prune_native`)."""
        return self._stacked is not None and self._kernel is not None

    def prune_native(
        self, centrals: np.ndarray, weights: np.ndarray, level_cover: bool
    ) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Final node sets and weight masses of the Central Graphs of
        ``centrals``, all on arrays in the ``prune_central_graphs`` kernel.

        Each graph is extracted, level-cover pruned when ``level_cover``
        is set (exactly as :func:`level_cover_prune`), and weighed: its
        mass is the sequential sum of ``weights`` in ascending node
        order, bit-equal to :func:`central_graph_score`'s. Requires
        :attr:`native`.

        Returns:
            ``(nodes, sizes, mass)``: the sorted node sets concatenated
            in ``centrals`` order, the node count of each, and the mass
            of each.
        """
        assert self._stacked is not None and self._matrix is not None
        n = self._n_nodes
        indptr_all, preds_all, col_offsets = self._stacked
        total_preds = max(int(col_offsets[-1]), 1)
        scratch = (
            np.zeros(n, dtype=np.uint8),  # visited
            np.zeros(n, dtype=np.uint8),  # seen
            np.empty(n, dtype=np.int64),  # stack
            np.empty(n, dtype=np.int64),  # col_nodes
            np.empty(n, dtype=np.int64),  # graph_nodes
            np.empty(2 * total_preds, dtype=np.int64),  # pairs
            np.full(n, -1, dtype=np.int64),  # local
            np.empty(n + 1, dtype=np.int64),  # succ_indptr
            np.empty(total_preds, dtype=np.int64),  # succ
            np.empty(n, dtype=np.int64),  # keyword_counts
            np.empty(self.n_keywords, dtype=np.uint8),  # covered
        )
        count = len(centrals)
        sizes = np.empty(count, dtype=np.int64)
        mass = np.empty(count, dtype=np.float64)
        # The output starts at one graph's worst case and doubles when a
        # call fills it, so it follows the sum of the pruned sizes.
        out = np.empty(max(n, 1), dtype=np.int64)
        chunks: List[np.ndarray] = []
        done = 0
        while done < count:
            written = self._kernel.prune_central_graphs(
                indptr_all.reshape(-1),
                preds_all,
                col_offsets,
                self._matrix.reshape(-1),
                weights,
                n,
                self.n_keywords,
                centrals[done:],
                level_cover,
                scratch,
                out,
                sizes[done:],
                mass[done:],
            )
            chunks.append(out[: int(sizes[done : done + written].sum())])
            done += written
            if done < count:
                out = np.empty(2 * len(out), dtype=np.int64)
        nodes = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return nodes, sizes, mass

    def minimal_native(
        self,
        nodes: np.ndarray,
        offsets: np.ndarray,
        candidate_of: np.ndarray,
        lo: int,
        hi: int,
        keep: np.ndarray,
    ) -> None:
        """Containment dedup of candidates ``[lo, hi)`` on the arrays of
        :meth:`prune_native`: ``keep[g]`` becomes 1 iff no candidate's
        node set is a strict subset of candidate ``g``'s."""
        self._kernel.minimal_central_graphs(
            nodes,
            offsets,
            candidate_of,
            lo,
            hi,
            np.zeros(self._n_nodes, dtype=np.uint8),
            keep,
        )

    def predecessors(self, node: int, column: int) -> np.ndarray:
        """Qualified keyword-``column`` predecessors of ``node``."""
        indptr = self._indptr[column]
        return self._preds[column][indptr[node]:indptr[node + 1]]

    def column_arrays(self, column: int) -> "tuple[np.ndarray, np.ndarray]":
        """The CSR (indptr, preds) pair for one keyword's hitting DAG."""
        return self._indptr[column], self._preds[column]

    def extract_native(
        self, central_node: int
    ) -> "Optional[tuple[np.ndarray, np.ndarray]]":
        """All-column closure of one Central Node in one kernel call.

        Returns ``(nodes, pairs)`` — deduplicated closure nodes and the
        (pred, target) pair rows (deduplicated within each column; the
        caller dedups across columns) — or None when the native stacked
        build is unavailable. The returned arrays are views into
        per-thread scratch: consume them before the next call on the
        same thread.
        """
        if self._stacked is None or self._kernel is None:
            return None
        bound = getattr(self._local, "extract_bound", None)
        if bound is None:
            bound = self._bind_extract()
            self._local.extract_bound = bound
        extract, out_nodes, out_pairs = bound
        n_nodes, n_pairs = extract(central_node)
        return out_nodes[:n_nodes], out_pairs[: 2 * n_pairs].reshape(-1, 2)

    def _bind_extract(
        self,
    ) -> "Tuple[Callable[[int], Tuple[int, int]], np.ndarray, np.ndarray]":
        """This thread's scratch, bound once with the stacked DAG into a
        raw-pointer ``extract_graph`` caller."""
        n = self._n_nodes
        indptr_all, preds_all, col_offsets = self._stacked
        assert self._matrix is not None
        out_nodes = np.empty(n, dtype=np.int64)
        out_pairs = np.empty(2 * max(int(col_offsets[-1]), 1), dtype=np.int64)
        extract = self._kernel.bind_extract_graph(
            indptr_all.reshape(-1),
            preds_all,
            col_offsets,
            self._matrix.reshape(-1),
            n,
            self.n_keywords,
            np.zeros(n, dtype=np.uint8),  # visited (per column)
            np.zeros(n, dtype=np.uint8),  # seen (across columns)
            np.empty(n, dtype=np.int64),  # DFS stack
            np.empty(n, dtype=np.int64),  # per-column visited list
            out_nodes,
            out_pairs,
            np.zeros(2, dtype=np.int64),  # n_out
        )
        return extract, out_nodes, out_pairs


def extract_central_graph(
    graph: KnowledgeGraph,
    state: SearchState,
    central_node: int,
    depth: int,
    dag: Optional[HittingDAG] = None,
    single_path: bool = False,
) -> CentralGraph:
    """Recover the Central Graph centered at ``central_node``.

    A standard BFS runs backward from the Central Node over
    (node, keyword) pairs, following the :class:`HittingDAG` qualified
    predecessors, so that a node reached for keyword ``i`` only pulls in
    its keyword-``i`` hitting paths (Definition 3's union of per-keyword
    hitting paths).

    Args:
        single_path: ablation switch — keep only one predecessor per
            (node, keyword) pair, degrading the answer to a tree-shaped
            union of single hitting paths (what GST methods return; the
            multi-path expressiveness of Fig. 1 is lost).
    """
    if dag is None:
        dag = HittingDAG(graph, state)
    matrix = state.matrix
    n_keywords = state.n_keywords

    nodes: Set[int] = {central_node}
    edges: Set[Tuple[int, int]] = set()
    if single_path:
        # Ablation path: one predecessor per (node, keyword) pair.
        start_pairs = [
            (central_node, column)
            for column in range(n_keywords)
            if matrix[central_node, column] > 0
        ]
        visited: Set[Tuple[int, int]] = set(start_pairs)
        stack: List[Tuple[int, int]] = list(start_pairs)
        while stack:
            target, column = stack.pop()
            predecessors = dag.predecessors(target, column)[:1]
            for pred in predecessors:
                pred = int(pred)
                edges.add((pred, target))
                nodes.add(pred)
                if matrix[pred, column] > 0 and (pred, column) not in visited:
                    visited.add((pred, column))
                    stack.append((pred, column))
    elif (
        getattr(dag, "extract_native", None) is not None
        and (bulk := dag.extract_native(central_node)) is not None
    ):
        # Native whole-graph closure: all contributing columns walked in
        # one C call against the stacked DAG, with scratch buffers
        # reused across Central Nodes (per thread). Produces the same
        # node and edge sets as the NumPy walk below.
        closure_nodes, pairs = bulk
        nodes.update(map(int, closure_nodes.tolist()))
        if len(pairs):
            n = graph.n_nodes
            keys = np.unique(pairs[:, 0] * np.int64(n) + pairs[:, 1])
            edge_preds, edge_targets = np.divmod(keys, np.int64(n))
            edges.update(zip(edge_preds.tolist(), edge_targets.tolist()))
    else:
        # Per keyword, the Central Graph's contribution is the backward
        # closure from the Central Node over that keyword's hitting DAG.
        # Keyword sources terminate automatically: a node with hitting
        # level 0 can have no qualified predecessor (Theorem V.4's
        # right-hand side is always >= 1). Levels are gathered with
        # whole-array kernels, which is what keeps extraction cheap when
        # hundreds of Central Nodes arrive at one depth.
        n = graph.n_nodes
        for column in range(n_keywords):
            if matrix[central_node, column] == 0:
                continue
            indptr, preds = dag.column_arrays(column)
            visited_mask = np.zeros(n, dtype=bool)
            visited_mask[central_node] = True
            frontier = np.array([central_node], dtype=np.int64)
            while len(frontier):
                starts = indptr[frontier]
                degrees = indptr[frontier + 1] - starts
                total = int(degrees.sum())
                if total == 0:
                    break
                offsets = np.concatenate(([0], np.cumsum(degrees)[:-1]))
                positions = (
                    np.repeat(starts - offsets, degrees) + np.arange(total)
                )
                level_preds = preds[positions]
                level_targets = np.repeat(frontier, degrees)
                edges.update(
                    zip(level_preds.tolist(), level_targets.tolist())
                )
                fresh = level_preds[~visited_mask[level_preds]]
                if len(fresh) == 0:
                    break
                frontier = np.unique(fresh)
                visited_mask[frontier] = True
            nodes.update(map(int, np.flatnonzero(visited_mask)))

    node_array = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
    zero_mask = matrix[node_array] == 0
    accumulated: Dict[int, List[int]] = {}
    for position, column in zip(*(index.tolist() for index in np.nonzero(zero_mask))):
        accumulated.setdefault(int(node_array[position]), []).append(column)
    contributions: Dict[int, FrozenSet[int]] = {
        node: frozenset(columns) for node, columns in accumulated.items()
    }
    return CentralGraph(
        central_node=central_node,
        depth=depth,
        nodes=nodes,
        edges=edges,
        keyword_contributions=contributions,
    )


def level_cover_prune(central: CentralGraph, n_keywords: int) -> CentralGraph:
    """Apply the level-cover strategy (Section V-C, Fig. 5).

    Keyword nodes inside the Central Graph are classified into levels by
    how many keywords they contribute; the Central Node always sits at the
    top. Walking levels greedily from the top, once the accumulated nodes
    cover every keyword, all lower levels are pruned together with the
    hitting paths that exist only to serve them. Nodes within one level
    never prune each other, so co-occurrence-rich answers stay intact.
    """
    contributions = central.keyword_contributions
    all_keywords = frozenset(range(n_keywords))

    covered: Set[int] = set(contributions.get(central.central_node, frozenset()))
    preserved: Set[int] = {central.central_node}
    if covered != all_keywords:
        grouped: Dict[int, List[int]] = {}
        for node, columns in contributions.items():
            if node == central.central_node:
                continue
            grouped.setdefault(len(columns), []).append(node)
        for count in sorted(grouped, reverse=True):
            level_nodes = grouped[count]
            preserved.update(level_nodes)
            for node in level_nodes:
                covered |= contributions[node]
            if covered == all_keywords:
                break

    if preserved.issuperset(contributions):
        # Every keyword node survived: nothing can be pruned, because
        # each member node lies on some preserved hitting path already.
        result = central
        result.pruned = True
        return result

    # Keep everything on a hitting path from a preserved node to the
    # Central Node: the forward closure over the hitting DAG.
    successors = central.successors()
    kept: Set[int] = set(preserved)
    stack = list(preserved)
    while stack:
        node = stack.pop()
        for child in successors.get(node, ()):
            if child not in kept:
                kept.add(child)
                stack.append(child)
    return central.restricted_to(kept)


def deduplicate_by_containment(
    graphs: Sequence[CentralGraph],
) -> List[CentralGraph]:
    """Drop answers that completely contain a smaller answer.

    The paper removes "the Central Graph that completely contains smaller
    ones" to curb repetition (Section VI-B). Processing by increasing node
    count guarantees any superset sees its subsets first.

    Kept node sets are indexed by their Central Node. A strict subset
    ``K`` of ``G`` contains its own Central Node, so that node is a
    member of ``G``: the only kept graphs ``G`` can contain are those
    centred on one of ``G``'s nodes. The cost per graph follows its own
    size and the graphs it could contain, not everything kept so far.

    Raises:
        ValueError: a graph whose ``central_node`` is not in its
            ``nodes`` (the index relies on that invariant).
    """
    ordered = sorted(graphs, key=lambda g: (g.n_nodes, g.central_node))
    kept: List[CentralGraph] = []
    kept_by_center: Dict[int, List[Set[int]]] = {}
    for graph in ordered:
        nodes = graph.nodes
        if graph.central_node not in nodes:
            raise ValueError(
                f"Central Graph {graph.central_node} does not contain its "
                "Central Node"
            )
        if any(
            nodes > existing
            for node in nodes
            for existing in kept_by_center.get(node, ())
        ):
            continue
        kept.append(graph)
        kept_by_center.setdefault(graph.central_node, []).append(nodes)
    return kept


@dataclass
class TopDownConfig:
    """Stage-two knobs.

    Attributes:
        k: how many final answers to return.
        lam: Eq. 6's λ (finite and ≥ 0).
        apply_level_cover: turn the pruning strategy off for ablations.
        deduplicate: turn containment filtering off for ablations.
        single_path: tree-shaped answers (one hitting path per keyword)
            instead of multi-path Central Graphs — ablation only.
        n_threads: on the array-native tier, the Central Node range is
            split into this many contiguous slices, each pruned, weighed
            and deduplicated by its own kernel call on its own thread
            (the paper runs this stage on CPU threads). The Python tiers
            run serially.
        native: ``False`` pins the NumPy hitting-DAG build and the
            per-candidate Python route (extract, prune, dedup, score on
            :class:`CentralGraph` objects: the measured reference);
            ``None`` uses the compiled kernels whenever they are
            available. Both tiers rank identically, bit for bit.
    """

    k: int = 20
    lam: float = DEFAULT_LAMBDA
    apply_level_cover: bool = True
    deduplicate: bool = True
    single_path: bool = False
    n_threads: int = 1
    native: Optional[bool] = None


@dataclass
class TopDownCounts:
    """Stage-two work counters of one query.

    Attributes:
        extracted: Central Graphs extracted (or handed in prebuilt).
        dedup_dropped: graphs removed by containment dedup.
    """

    extracted: int = 0
    dedup_dropped: int = 0


def process_top_down(
    graph: KnowledgeGraph,
    state: SearchState,
    weights: np.ndarray,
    config: Optional[TopDownConfig] = None,
    timer: Optional[PhaseTimer] = None,
    prebuilt: Optional[Iterable[CentralGraph]] = None,
    counts: Optional[TopDownCounts] = None,
) -> List[CentralGraph]:
    """Run stage two over every identified Central Node.

    On the native tier every candidate is extracted, pruned, weighed and
    deduplicated on arrays in the kernel; the top k are selected there
    and only they become :class:`CentralGraph` objects, rebuilt by
    :func:`extract_central_graph` and :func:`level_cover_prune` and
    scored by :func:`central_graph_score`. ``native=False``,
    ``single_path`` and ``prebuilt`` take the per-candidate Python route.
    Both rank identically.

    With an enabled tracer on ``timer``, the ``top_down_processing``
    phase span holds ``top_down.dag``, ``top_down.select`` (everything
    from extraction to the top-k choice) and, on the native tier,
    ``top_down.materialise`` (building the winners).

    Args:
        weights: normalized degree-of-summary weights (for Eq. 6).
        prebuilt: already-materialized Central Graphs (the CPU-Par-d
            variant records paths during search and skips extraction);
            when given, ``state.central_nodes`` is ignored.
        counts: when given, receives this query's stage-two counters.

    Returns:
        The final top-k answers, best (lowest score) first.

    Raises:
        ValueError: ``k < 1``, or a negative or non-finite λ.
        RuntimeError: a rebuilt winner disagrees with the kernel's
            node count or score.
    """
    config = config or TopDownConfig()
    validate_lambda(config.lam)
    if config.k < 1:
        raise ValueError("k must be at least 1")
    timer = timer or PhaseTimer()
    tracer = getattr(timer, "tracer", None)
    span = tracer.span if tracer is not None and tracer.enabled else _no_span
    with timer.phase(PHASE_TOP_DOWN):
        if prebuilt is not None:
            extracted = list(prebuilt)
            dag = None
        else:
            central_nodes = state.central_nodes
            with span("top_down.dag"):
                dag = (
                    HittingDAG(graph, state, native=config.native)
                    if central_nodes
                    else None
                )
        if (
            dag is not None
            and dag.native
            and not config.single_path
            and isinstance(weights, np.ndarray)
            and weights.dtype == np.float64
        ):
            with span("top_down.select"):
                winners, sizes, scores, n_kept = _select_native(
                    dag, state, weights, config
                )
            with span("top_down.materialise"):
                ranked = _materialise(
                    graph, state, weights, config, dag, winners, sizes, scores
                )
            n_extracted = len(state.central_nodes)
        else:
            with span("top_down.select"):
                if prebuilt is None:
                    extracted = [
                        extract_central_graph(
                            graph, state, node, depth, dag, config.single_path
                        )
                        for node, depth in state.central_nodes
                    ]
                ranked, n_kept = _rank_graphs(
                    extracted, state.n_keywords, weights, config
                )
            n_extracted = len(extracted)
        if counts is not None:
            counts.extracted = n_extracted
            counts.dedup_dropped = n_extracted - n_kept
        return ranked


def _no_span(name: str) -> ContextManager[None]:
    return nullcontext()


def _rank_graphs(
    extracted: List[CentralGraph],
    n_keywords: int,
    weights: np.ndarray,
    config: TopDownConfig,
) -> Tuple[List[CentralGraph], int]:
    """The per-candidate route: prune, dedup, score and heap Python
    objects. Returns the ranking and how many graphs dedup kept."""
    if config.apply_level_cover:
        extracted = [level_cover_prune(answer, n_keywords) for answer in extracted]
    if config.deduplicate:
        extracted = deduplicate_by_containment(extracted)
    for answer in extracted:
        answer.score = central_graph_score(answer, weights, config.lam)
    heap = TopKHeap(config.k)
    heap.extend(extracted)
    return heap.ranked(), len(extracted)


def _slices(count: int, parts: int) -> List[Tuple[int, int]]:
    """``[0, count)`` cut into at most ``parts`` contiguous non-empty
    slices."""
    parts = max(1, min(parts, count))
    bounds = [count * i // parts for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _select_native(
    dag: HittingDAG,
    state: SearchState,
    weights: np.ndarray,
    config: TopDownConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every candidate's pruned node set, mass and dedup verdict from the
    kernel, then the top k by ``(score, n_nodes, central_node)``:
    :class:`TopKHeap`'s order, since Central Nodes are unique.

    Returns the winners' candidate indices, node counts and scores, best
    first, and how many candidates dedup kept.
    """
    pairs = np.array(state.central_nodes, dtype=np.int64).reshape(-1, 2)
    centrals = np.ascontiguousarray(pairs[:, 0])
    depths = pairs[:, 1]
    count = len(centrals)
    weights = np.ascontiguousarray(weights)
    slices = _slices(count, config.n_threads)
    threads = len(slices) > 1
    with ThreadPoolExecutor(len(slices)) if threads else nullcontext() as pool:
        run = pool.map if pool is not None else map
        parts = list(
            run(
                lambda bounds: dag.prune_native(
                    centrals[bounds[0] : bounds[1]],
                    weights,
                    config.apply_level_cover,
                ),
                slices,
            )
        )
        nodes = np.concatenate([part[0] for part in parts])
        sizes = np.concatenate([part[1] for part in parts])
        mass = np.concatenate([part[2] for part in parts])
        if config.deduplicate:
            offsets = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            candidate_of = np.full(state.n_nodes, -1, dtype=np.int64)
            candidate_of[centrals] = np.arange(count, dtype=np.int64)
            keep = np.empty(count, dtype=np.uint8)
            list(
                run(
                    lambda bounds: dag.minimal_native(
                        nodes, offsets, candidate_of, bounds[0], bounds[1], keep
                    ),
                    slices,
                )
            )
            kept = np.flatnonzero(keep)
        else:
            kept = np.arange(count)
    # d^λ in Python floats (as central_graph_score computes it), one
    # power per distinct depth; the product with the mass is one IEEE
    # multiply either way.
    unique_depths, depth_index = np.unique(depths[kept], return_inverse=True)
    factors = np.array(
        [float(depth) ** config.lam for depth in unique_depths.tolist()],
        dtype=np.float64,
    )
    scores = factors[depth_index] * mass[kept]
    order = np.lexsort((centrals[kept], sizes[kept], scores))[: config.k]
    return kept[order], sizes[kept[order]], scores[order], len(kept)


def _materialise(
    graph: KnowledgeGraph,
    state: SearchState,
    weights: np.ndarray,
    config: TopDownConfig,
    dag: HittingDAG,
    winners: np.ndarray,
    sizes: np.ndarray,
    scores: np.ndarray,
) -> List[CentralGraph]:
    """Build the selected answers with the per-candidate route's own
    functions, checking each against the kernel's count and score."""
    ranked = []
    for index, size, score in zip(winners.tolist(), sizes.tolist(), scores.tolist()):
        node, depth = state.central_nodes[index]
        answer = extract_central_graph(graph, state, node, depth, dag)
        if config.apply_level_cover:
            answer = level_cover_prune(answer, state.n_keywords)
        answer.score = central_graph_score(answer, weights, config.lam)
        if answer.n_nodes != size or answer.score != score:
            raise RuntimeError(
                f"Central Graph {node}: kernel selected {size} nodes with "
                f"score {score!r}, rebuilt {answer.n_nodes} nodes with "
                f"score {answer.score!r}"
            )
        ranked.append(answer)
    return ranked
