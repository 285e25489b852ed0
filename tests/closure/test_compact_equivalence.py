"""Compact-vs-dict closure equivalence (the PR-4 refactor safety net).

The array-backed :class:`TransitiveClosure` must produce *identical*
distance maps to the straightforward dict-of-dicts construction it
replaced, on random unit-weight and weighted graphs from the shared
strategies.
"""

from hypothesis import given, settings

from repro.closure.transitive import TransitiveClosure
from repro.graph.traversal import single_source_distances
from tests.strategies import graphs, weighted_graphs


def dict_closure(graph):
    """The pre-compact layout: one dict row per source."""
    return {
        source: single_source_distances(graph, source)
        for source in graph.nodes()
    }


def assert_equivalent(graph):
    reference = dict_closure(graph)
    closure = TransitiveClosure(graph)
    assert closure.num_pairs == sum(len(row) for row in reference.values())
    for source, row in reference.items():
        assert dict(closure.successors(source)) == row
        for target, dist in row.items():
            assert closure.distance(source, target) == dist
    decoded = {}
    for tail, head, dist in closure.pairs():
        decoded.setdefault(tail, {})[head] = dist
    assert decoded == {s: r for s, r in reference.items() if r}


class TestEquivalence:
    @given(graphs(min_nodes=2, max_nodes=16, max_edges=45))
    @settings(max_examples=50, deadline=None)
    def test_unit_graphs(self, g):
        assert_equivalent(g)

    @given(weighted_graphs(min_nodes=2, max_nodes=14, max_edges=40, max_weight=6))
    @settings(max_examples=50, deadline=None)
    def test_weighted_graphs(self, g):
        assert_equivalent(g)

    @given(graphs(min_nodes=2, max_nodes=14, max_edges=35))
    @settings(max_examples=30, deadline=None)
    def test_stats_schema(self, g):
        stats = TransitiveClosure(g).stats()
        assert set(stats) == {
            "pair_count", "bytes_estimate", "build_seconds", "partial",
        }
        assert stats["pair_count"] == TransitiveClosure(g).num_pairs
        assert stats["bytes_estimate"] > 0
        assert stats["build_seconds"] >= 0.0
