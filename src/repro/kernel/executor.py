"""Bind + execute kernel programs over flat arrays.

:func:`bind_program` runs a :class:`~repro.kernel.program.KernelProgram`
against a closure store: it executes the SCAN/FANOUT/PROBE/DIRECT ops by
streaming the store's pair tables into flat columns, then the ACCUM and
ROOTS ops by lowering the interpreter's ``bs`` scores and ``StaticSlot``
orderings into CSR arrays (offsets + keys + child indexes) frozen in the
interpreter's exact ``(key, repr)`` tie order.  The result is a
:class:`BoundProgram` — pure arrays, no per-node objects — from which
:meth:`BoundProgram.run` starts fresh :class:`KernelRun` enumerations
(the PUSH op: the Lawler loop over array slices).

Equivalence contract (fuzz-pinned byte-for-byte in
``tests/test_differential_fuzz.py``): for every query the kernel
supports, a :class:`KernelRun` produces the *identical* match sequence —
same assignments, same scores, same order, including tie order — as
``TopkEnumerator`` over ``build_runtime_graph``.  The load notes:

* ``StaticSlot`` extraction order is a pure function of the entry set
  sorted by ``(key, repr(payload))`` — insertion order never matters —
  so slots become pre-sorted array slices and ``ith(rank)`` becomes
  O(1) indexing.
* Run-time-graph viability equals ``bs``-existence, and the
  interpreter's top-down prune never removes entries from surviving
  root-reachable slots, so the kernel skips the prune entirely.
* Dead children are *excluded* from slot rows (never carried with
  ``inf`` keys, which would corrupt Case-2 second-best peeks); dead
  branches surface only as ``inf`` parent totals.
* All float arithmetic replays the interpreter's operation sequence:
  ``bs[child] + dist`` per row, per-child ``+=`` of group minimums in
  children order, incremental ``score + (next - prev)`` deltas.
"""

from __future__ import annotations

import heapq
import itertools
import time
from array import array
from typing import Iterator

from repro.core.matches import EnumerationStats, Match
from repro.exceptions import MatchingError
from repro.kernel.program import KernelProgram

_INF = float("inf")

#: Sentinel edge index addressing the root slot.
_ROOT_SLOT = -1


def bind_program(
    program: KernelProgram,
    store,
    *,
    matcher,
    node_weight=None,
) -> "BoundProgram":
    """Execute the program's scan/probe/accumulate ops against ``store``.

    ``matcher`` is the label matcher of the compiled query
    (``compiled.effective_matcher(config.label_matcher)``);
    ``node_weight`` the optional per-node weight callable.

    The bound result is store-snapshot-specific but reusable: every
    :meth:`BoundProgram.run` call starts an independent enumeration over
    the same frozen arrays, which is what makes warm repeated serving
    queries cheap.
    """
    started = time.perf_counter()
    graph = store.graph
    alphabet = graph.labels()
    order = program.order
    n = len(order)

    # SCAN / FANOUT + PROBE (+ pushed-down DIRECT): stream each edge's
    # pair-table rows into flat columns, expanding query labels through
    # the matcher exactly as ``build_runtime_graph`` does.
    def expand(pos: int):
        data_labels = matcher.data_labels_for(program.labels[pos], alphabet)
        return [None] if data_labels is None else data_labels

    raw_edges: list[tuple[list, list, list[float]]] = []
    for parent_pos, child_pos, direct in program.edge_specs:
        tails: list = []
        heads: list = []
        dists: list[float] = []
        for tail_label in expand(parent_pos):
            for head_label in expand(child_pos):
                for tail, head, dist in store.read_pair_table(
                    tail_label, head_label, direct_only=direct
                ):
                    tails.append(tail)
                    heads.append(head)
                    dists.append(dist)
        raw_edges.append((tails, heads, dists))

    # Candidate registers: sorted by repr — the interpreter's canonical
    # node order — with per-candidate repr((qnode, node)) strings frozen
    # once (slot tie-breaks compare the repr of the full payload tuple).
    cand_sets: list[set] = [set() for _ in range(n)]
    if n == 1:
        data_labels = matcher.data_labels_for(program.labels[0], alphabet)
        if data_labels is None:
            cand_sets[0] = set(graph.nodes())
        else:
            for data_label in data_labels:
                cand_sets[0] |= set(graph.nodes_with_label(data_label))
    else:
        for e, (parent_pos, child_pos, _direct) in enumerate(program.edge_specs):
            tails, heads, _dists = raw_edges[e]
            cand_sets[parent_pos].update(tails)
            cand_sets[child_pos].update(heads)
    nodes = [sorted(s, key=repr) for s in cand_sets]
    index = [{v: i for i, v in enumerate(vs)} for vs in nodes]
    reprs = [
        [repr((order[pos], v)) for v in vs] for pos, vs in enumerate(nodes)
    ]
    if node_weight is None:
        weights = [[0.0] * len(vs) for vs in nodes]
    else:
        weights = [[float(node_weight(v)) for v in vs] for vs in nodes]

    # Translate edge endpoints into candidate-index space.
    edge_cols: list[tuple[array, array, array]] = []
    for e, (parent_pos, child_pos, _direct) in enumerate(program.edge_specs):
        tails, heads, dists = raw_edges[e]
        ip = index[parent_pos]
        ic = index[child_pos]
        edge_cols.append(
            (
                array("q", (ip[v] for v in tails)),
                array("q", (ic[v] for v in heads)),
                array("d", dists),
            )
        )

    # ACCUM: bottom-up bs totals + per-edge slot CSR.
    num_edges = len(program.edge_specs)
    bs: list[list[float]] = [None] * n  # type: ignore[list-item]
    alive: list[list[bool]] = [None] * n  # type: ignore[list-item]
    slot_off: list[array] = [None] * num_edges  # type: ignore[list-item]
    slot_keys: list[array] = [None] * num_edges  # type: ignore[list-item]
    slot_child: list[array] = [None] * num_edges  # type: ignore[list-item]
    for pos in range(n - 1, -1, -1):
        num_cands = len(nodes[pos])
        kids = program.child_edges[pos]
        if not kids:
            bs[pos] = list(weights[pos])
            alive[pos] = [True] * num_cands
            continue
        totals = list(weights[pos])
        for e, child_pos in kids:
            parents_col, children_col, dists_col = edge_cols[e]
            alive_child = alive[child_pos]
            bs_child = bs[child_pos]
            reprs_child = reprs[child_pos]
            groups: list[list] = [[] for _ in range(num_cands)]
            for row in range(len(parents_col)):
                child = children_col[row]
                if alive_child[child]:
                    groups[parents_col[row]].append(
                        (
                            bs_child[child] + dists_col[row],
                            reprs_child[child],
                            child,
                        )
                    )
            offsets = array("q", [0] * (num_cands + 1))
            keys = array("d")
            childs = array("q")
            filled = 0
            for cand in range(num_cands):
                group = groups[cand]
                if group:
                    group.sort()
                    totals[cand] += group[0][0]
                    for key, _rep, child in group:
                        keys.append(key)
                        childs.append(child)
                    filled += len(group)
                else:
                    totals[cand] = _INF
                offsets[cand + 1] = filled
            slot_off[e] = offsets
            slot_keys[e] = keys
            slot_child[e] = childs
        bs[pos] = totals
        alive[pos] = [t < _INF for t in totals]

    # ROOTS: the root slot, sorted by (bs, repr((root, node))).
    root_entries = sorted(
        (bs[0][cand], reprs[0][cand], cand)
        for cand in range(len(nodes[0]))
        if alive[0][cand]
    )
    root_keys = array("d", (entry[0] for entry in root_entries))
    root_cand = array("q", (entry[2] for entry in root_entries))

    bound = BoundProgram(
        program=program,
        nodes=nodes,
        weights=weights,
        slot_off=slot_off,
        slot_keys=slot_keys,
        slot_child=slot_child,
        root_keys=root_keys,
        root_cand=root_cand,
        bind_seconds=time.perf_counter() - started,
    )
    return bound


class BoundProgram:
    """A program bound to one store snapshot: frozen flat arrays only."""

    __slots__ = (
        "program",
        "n",
        "nodes",
        "weights",
        "slot_off",
        "slot_keys",
        "slot_child",
        "root_keys",
        "root_cand",
        "bind_seconds",
    )

    def __init__(
        self,
        *,
        program: KernelProgram,
        nodes,
        weights,
        slot_off,
        slot_keys,
        slot_child,
        root_keys,
        root_cand,
        bind_seconds: float,
    ) -> None:
        self.program = program
        self.n = program.num_positions
        self.nodes = nodes
        self.weights = weights
        self.slot_off = slot_off
        self.slot_keys = slot_keys
        self.slot_child = slot_child
        self.root_keys = root_keys
        self.root_cand = root_cand
        self.bind_seconds = bind_seconds

    def top1_score(self) -> float | None:
        """Score of the best match, or ``None`` when no match exists."""
        return self.root_keys[0] if len(self.root_keys) else None

    @property
    def num_candidates(self) -> int:
        return sum(len(vs) for vs in self.nodes)

    @property
    def num_slot_entries(self) -> int:
        return sum(len(keys) for keys in self.slot_keys)

    def run(self) -> "KernelRun":
        """Start a fresh enumeration over the bound arrays (the PUSH op)."""
        return KernelRun(self)


class _Ref:
    """Compact candidate in array space: parent link + one replacement.

    ``edge``/``pcand`` address the slot the replacement was drawn from:
    ``edge == _ROOT_SLOT`` is the root slot, otherwise the CSR group of
    parent candidate ``pcand`` on edge ``edge``.
    """

    __slots__ = (
        "score",
        "parent",
        "div_pos",
        "cand",
        "rank",
        "edge",
        "pcand",
        "round_heap",
        "assign",
    )

    def __init__(self, score, parent, div_pos, cand, rank, edge, pcand):
        self.score = score
        self.parent = parent
        self.div_pos = div_pos
        self.cand = cand
        self.rank = rank
        self.edge = edge
        self.pcand = pcand
        self.round_heap = None
        self.assign = None


class KernelRun:
    """One enumeration over a :class:`BoundProgram` (interpreter-exact).

    Implements the enumerator protocol (``top_k`` / ``stream`` /
    ``results`` / ``stats``) so engines and ``ResultStream`` treat it
    like any interpreter enumerator.  The heap discipline mirrors
    ``TopkEnumerator`` exactly: a global queue with insertion-counter
    tie-breaks, per-round ``Q_l`` heaps with local counters, promote
    before divide.
    """

    def __init__(self, bound: BoundProgram) -> None:
        self._b = bound
        self.stats = EnumerationStats(init_seconds=bound.bind_seconds)
        self.stats.extra["tier"] = "compiled"
        self._queue: list = []
        self._counter = itertools.count()
        self._started = False
        self.results: list[Match] = []

    # ------------------------------------------------------------------
    def _slot_bounds(self, edge: int, pcand: int) -> tuple[array, array, int, int]:
        """(keys, childs, start, end) of the addressed slot slice."""
        b = self._b
        if edge == _ROOT_SLOT:
            return b.root_keys, b.root_cand, 0, len(b.root_keys)
        offsets = b.slot_off[edge]
        return b.slot_keys[edge], b.slot_child[edge], offsets[pcand], offsets[pcand + 1]

    def top1_score(self) -> float | None:
        return self._b.top1_score()

    # ------------------------------------------------------------------
    def _seed(self) -> None:
        self._started = True
        b = self._b
        if not len(b.root_keys):
            return
        score = b.root_keys[0]
        ref = _Ref(score, None, 0, b.root_cand[0], 1, _ROOT_SLOT, 0)
        heapq.heappush(self._queue, (score, next(self._counter), ref))

    def _promote_sibling(self, ref: _Ref) -> None:
        heap = ref.round_heap
        if not heap:
            return
        score, _seq, sibling = heapq.heappop(heap)
        sibling.round_heap = heap
        heapq.heappush(self._queue, (score, next(self._counter), sibling))

    def _materialize(self, ref: _Ref) -> list:
        if ref.assign is not None:
            return ref.assign
        b = self._b
        if ref.parent is None:
            assign = [-1] * b.n
        else:
            if ref.parent.assign is None:
                raise MatchingError("parent match must be materialized first")
            assign = list(ref.parent.assign)
        assign[ref.div_pos] = ref.cand
        stack = [ref.div_pos]
        child_edges = b.program.child_edges
        slot_off = b.slot_off
        slot_child = b.slot_child
        while stack:
            pos = stack.pop()
            cand = assign[pos]
            for e, child_pos in child_edges[pos]:
                start = slot_off[e][cand]
                if start == slot_off[e][cand + 1]:
                    raise MatchingError(
                        f"no viable child on edge {e} of candidate {cand} "
                        "during kernel materialization"
                    )
                assign[child_pos] = slot_child[e][start]
                stack.append(child_pos)
        ref.assign = assign
        return assign

    def _divide(self, ref: _Ref) -> None:
        b = self._b
        stats = self.stats
        assign = ref.assign
        candidates: list[_Ref] = []

        # Case 1: next rank at the popped match's own slot.
        stats.case1_requests += 1
        keys, childs, start, end = self._slot_bounds(ref.edge, ref.pcand)
        nxt = start + ref.rank  # index of the (rank+1)-th entry
        if nxt >= end:
            stats.empty_subspaces += 1
        else:
            new_score = ref.score + (keys[nxt] - keys[nxt - 1])
            candidates.append(
                _Ref(
                    new_score,
                    ref,
                    ref.div_pos,
                    childs[nxt],
                    ref.rank + 1,
                    ref.edge,
                    ref.pcand,
                )
            )

        # Case 2: second-best sibling at every later BFS position.
        parent_pos = b.program.parent_pos
        edge_in = b.program.edge_in
        slot_off = b.slot_off
        for pos in range(ref.div_pos + 1, b.n):
            edge = edge_in[pos]
            pcand = assign[parent_pos[pos]]
            stats.case2_requests += 1
            offsets = slot_off[edge]
            start = offsets[pcand]
            if offsets[pcand + 1] - start < 2:
                stats.empty_subspaces += 1
                continue
            keys2 = b.slot_keys[edge]
            new_score = ref.score + (keys2[start + 1] - keys2[start])
            candidates.append(
                _Ref(
                    new_score,
                    ref,
                    pos,
                    b.slot_child[edge][start + 1],
                    2,
                    edge,
                    pcand,
                )
            )

        stats.candidates_generated += len(candidates)
        if not candidates:
            return
        best_index = min(range(len(candidates)), key=lambda i: candidates[i].score)
        best = candidates.pop(best_index)
        if candidates:
            round_heap: list = []
            local = itertools.count()
            for cand in candidates:
                heapq.heappush(round_heap, (cand.score, next(local), cand))
            best.round_heap = round_heap
        heapq.heappush(self._queue, (best.score, next(self._counter), best))

    def _advance(self) -> Match | None:
        if not self._started:
            self._seed()
        if not self._queue:
            return None
        score, _seq, ref = heapq.heappop(self._queue)
        self._promote_sibling(ref)
        assign = self._materialize(ref)
        self.stats.rounds += 1
        self._divide(ref)
        b = self._b
        match = Match(
            assignment={
                b.program.order[pos]: b.nodes[pos][assign[pos]]
                for pos in range(b.n)
            },
            score=score,
        )
        self.results.append(match)
        return match

    def __iter__(self) -> Iterator[Match]:
        return self.stream()

    def stream(self) -> Iterator[Match]:
        """Yield matches in non-decreasing score order (replays cache)."""
        index = 0
        while True:
            while index < len(self.results):
                yield self.results[index]
                index += 1
            if self._advance() is None:
                return

    def top_k(self, k: int) -> list[Match]:
        """Return up to ``k`` best matches (fewer when G has fewer)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        started = time.perf_counter()
        while len(self.results) < k:
            if self._advance() is None:
                break
        self.stats.enum_seconds += time.perf_counter() - started
        return list(self.results[:k])
