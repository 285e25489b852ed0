"""Execution: bound programs replay the reference interpreter exactly."""

import time

import pytest

from repro.engine import MatchEngine
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import citation_graph
from repro.kernel import bind_program, compile_program

def exact(matches):
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


def tie_graph():
    """A dense two-level graph with many equal-score matches (tie stress)."""
    labels = {i: "ABC"[i % 3] for i in range(9)}
    edges = [
        (t, h) for t in range(9) for h in range(9)
        if t != h and (t + h) % 2
    ]
    return graph_from_edges(labels, edges)


def reference(engine, compiled, k):
    return exact(engine._build_enumerator(compiled, "topk").top_k(k))


def kernel_bind(engine, compiled, node_weight=None):
    return bind_program(
        compile_program(compiled),
        engine.store,
        matcher=compiled.effective_matcher(engine.config.label_matcher),
        node_weight=node_weight,
    )


QUERIES = (
    "A//B",           # single edge
    "A/B",            # direct axis
    "A//B[C]",        # branching twig
    "A//B//C",        # chain
    "A//*",           # wildcard fan-out
    "A[*]/B",         # wildcard + direct
    "~A//~B",         # containment matcher
    "A",              # single node, no edges
)


class TestExactEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("k", (1, 5, 1000))
    def test_kernel_matches_interpreter(self, query, k):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile(query)
        want = reference(engine, compiled, k)
        bound = kernel_bind(engine, compiled)
        assert exact(bound.run().top_k(k)) == want, query

    @pytest.mark.parametrize("query", ("A//B[C]", "A/B", "A//*"))
    def test_kernel_matches_interpreter_on_citation_graph(self, query):
        graph = citation_graph(120, num_labels=5, seed=3)
        engine = MatchEngine(graph, backend="full")
        compiled = engine.compile(query)
        want = reference(engine, compiled, 25)
        bound = kernel_bind(engine, compiled)
        assert exact(bound.run().top_k(25)) == want, query

    def test_node_weights_replayed(self):
        engine = MatchEngine(
            tie_graph(), backend="full",
            node_weight=lambda node: float(node % 4),
        )
        compiled = engine.compile("A//B[C]")
        want = reference(engine, compiled, 50)
        assert any(score for score, _ in want), "weights must matter"
        bound = kernel_bind(
            engine, compiled, node_weight=engine.config.node_weight
        )
        assert exact(bound.run().top_k(50)) == want

    def test_empty_result_sets_agree(self):
        graph = graph_from_edges({0: "A", 1: "B", 2: "Z"}, [(0, 1)])
        engine = MatchEngine(graph, backend="full")
        compiled = engine.compile("A//Z")  # label exists, no closure row
        assert reference(engine, compiled, 5) == []
        assert kernel_bind(engine, compiled).run().top_k(5) == []


class TestRunProtocol:
    def test_stats_surface_the_tier(self):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile("A//B")
        run = kernel_bind(engine, compiled).run()
        run.top_k(3)
        assert run.stats.extra["tier"] == "compiled"
        assert run.stats.rounds >= 3

    def test_stream_is_an_iterator_over_the_same_order(self):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile("A//B")
        bound = kernel_bind(engine, compiled)
        want = exact(bound.run().top_k(7))
        streamed = []
        for match in bound.run().stream():
            streamed.append(match)
            if len(streamed) == 7:
                break
        assert exact(streamed) == want

    def test_negative_k_raises(self):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile("A//B")
        bound = kernel_bind(engine, compiled)
        with pytest.raises(ValueError, match="non-negative"):
            bound.run().top_k(-1)

    def test_bound_program_reports_bind_costs(self):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile("A//B")
        bound = kernel_bind(engine, compiled)
        assert bound.bind_seconds >= 0.0
        assert bound.num_candidates > 0


class TestHotRepeats:
    def test_kernel_beats_interpreter(self):
        """Acceptance bar of the compiled tier: hot repeated queries over
        one index run >= 1.5x the interpreter's throughput (in practice
        several times faster).  Both sides start a fresh enumeration per
        request; the kernel reuses its bound arrays, as a warm binding
        cache does."""
        graph = citation_graph(150, num_labels=12, seed=0)
        engine = MatchEngine(graph, backend="full")
        queries = ["V0//V1", "V2//V3[V4]", "V5//V6", "V6//V7[V8]"]
        compiled = [engine.compile(query) for query in queries]
        plans = [engine.planner.plan(c, 10).algorithm for c in compiled]
        bound = [kernel_bind(engine, c) for c in compiled]

        def best_of(run_one, repeats=3, requests=60):
            for index in range(len(queries)):  # warm every per-query path
                run_one(index)
            timings = []
            for _ in range(repeats):
                started = time.perf_counter()
                for request in range(requests):
                    run_one(request % len(queries))
                timings.append(time.perf_counter() - started)
            return min(timings)

        interpreter = best_of(
            lambda i: engine._build_enumerator(compiled[i], plans[i]).top_k(10)
        )
        kernel = best_of(lambda i: bound[i].run().top_k(10))
        assert interpreter / kernel >= 1.5, (interpreter, kernel)
