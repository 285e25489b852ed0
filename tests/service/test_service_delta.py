"""MatchService write path: delta overlay, WAL recovery, compaction.

The acceptance contract of the write-ahead overlay: a delta-path update
is deferred but *never* observable as staleness (the first read folds
it), a crash at any point between append and compaction loses nothing
that was acknowledged, and a compaction swaps in a new ``.ridx``
generation the next cold start boots from directly.
"""

from __future__ import annotations

import time

import pytest

from repro.delta import CompactionPolicy, scan_wal
from repro.engine import MatchEngine
from repro.exceptions import ServiceError
from repro.graph.generators import citation_graph
from repro.service import MatchService

QUERY = "V0//V1"


def exact(matches):
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


@pytest.fixture
def graph():
    return citation_graph(40, num_labels=5, seed=3)


@pytest.fixture
def family(tmp_path, graph):
    """A persisted base index + the WAL path a durable service would use."""
    base = tmp_path / "index.ridx"
    MatchEngine(graph, backend="full").save_index(base, format="binary")
    return base, tmp_path / "index.wal"


def durable_service(base, wal, **kwargs):
    kwargs.setdefault("auto_compact", False)
    kwargs.setdefault("max_workers", 1)
    return MatchService.from_index(base, wal_path=wal, **kwargs)


class TestDeltaPath:
    def test_update_defers_and_read_materializes(self, graph):
        with MatchService(
            graph, backend="full", update_policy="delta", max_workers=1,
            auto_compact=False,
        ) as service:
            report = service.apply_updates(edges_added=[(0, 1, 1)])
            assert report.deferred
            assert report.epoch == 1
            assert service.epoch == 1
            mutated = graph.copy()
            mutated.add_edge(0, 1, 1)
            fresh = MatchEngine(mutated, backend="full")
            assert exact(service.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )
            stats = service.statistics()["delta"]
            assert stats["delta_updates"] == 1
            assert stats["materializations"] == 1
            assert stats["pending_records"] == 0

    def test_auto_policy_routes_large_batches_eagerly(self, graph):
        with MatchService(
            graph, backend="full", update_policy="auto",
            delta_batch_limit=2, max_workers=1, auto_compact=False,
        ) as service:
            small = service.apply_updates(edges_added=[(0, 2)])
            assert small.deferred
            big = service.apply_updates(
                edges_added=[(0, 3), (0, 4), (1, 5)]
            )
            assert not big.deferred
            stats = service.statistics()["delta"]
            assert stats["delta_updates"] == 1
            assert stats["eager_updates"] == 1
            assert stats["pending_records"] == 0  # eager absorbed the log

    def test_failed_batch_rolls_back_cleanly(self, graph):
        with MatchService(
            graph, backend="full", update_policy="delta", max_workers=1,
            auto_compact=False,
        ) as service:
            service.apply_updates(edges_added=[(0, 6)])
            with pytest.raises(ServiceError):
                # Second record targets a node that does not exist.
                service.apply_updates(
                    edges_added=[(1, 7)], edges_removed=[(12345, 0)]
                )
            assert service.epoch == 1, "failed batch must not bump the epoch"
            mutated = graph.copy()
            mutated.add_edge(0, 6)
            fresh = MatchEngine(mutated, backend="full")
            assert exact(service.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )


class TestWalRecovery:
    def test_crash_before_fold_replays_and_converges(self, family, graph):
        base, wal = family
        service = durable_service(base, wal, update_policy="delta")
        service.apply_updates(edges_added=[(0, 1, 1)])
        service.apply_updates(edges_added=[(2, 0, 2)])
        # Simulated crash: the process dies without close()/compact().
        service._pool.shutdown(wait=False)
        mutated = graph.copy()
        mutated.add_edge(0, 1, 1)
        mutated.add_edge(2, 0, 2)
        fresh = MatchEngine(mutated, backend="full")
        with durable_service(base, wal) as reopened:
            assert reopened.statistics()["delta"]["pending_records"] == 2
            assert exact(reopened.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )

    def test_kill_mid_append_drops_the_torn_tail(self, family, graph):
        base, wal = family
        service = durable_service(base, wal, update_policy="delta")
        service.apply_updates(edges_added=[(0, 1, 1)])
        service._pool.shutdown(wait=False)
        with open(wal, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef\xde\xad")  # half a frame
        mutated = graph.copy()
        mutated.add_edge(0, 1, 1)
        fresh = MatchEngine(mutated, backend="full")
        with durable_service(base, wal) as reopened:
            wal_stats = reopened.statistics()["delta"]["wal"]
            assert wal_stats["recovered_records"] == 1
            assert wal_stats["recovered_truncated_tail"]
            assert wal_stats["recovered_dropped_bytes"] == 6
            assert exact(reopened.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )

    def test_recovered_wal_must_apply_to_the_base(self, family):
        base, wal = family
        service = durable_service(base, wal, update_policy="delta")
        service.apply_updates(edges_added=[(30, 31, 1)])
        service._pool.shutdown(wait=False)
        other_base = base.with_name("other.ridx")
        MatchEngine(
            citation_graph(5, num_labels=2, seed=9), backend="full"
        ).save_index(other_base, format="binary")
        with pytest.raises(ServiceError, match="does not apply"):
            durable_service(other_base, wal)


class TestCompaction:
    def test_compact_writes_a_generation_and_truncates_the_wal(
        self, family, graph
    ):
        base, wal = family
        with durable_service(base, wal, update_policy="delta") as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            report = service.compact()
            assert report["generation"] == 1
            assert report["records_folded"] == 1
            assert base.with_name("index.gen-0001.ridx").exists()
        scan = scan_wal(wal)
        assert scan.records == () and scan.generation == 1
        # The next cold start boots from the generation: no WAL replay,
        # but the folded edge is in the index it opens.
        mutated = graph.copy()
        mutated.add_edge(0, 1, 1)
        fresh = MatchEngine(mutated, backend="full")
        with durable_service(base, wal) as reopened:
            assert reopened.statistics()["delta"]["pending_records"] == 0
            assert exact(reopened.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )

    def test_stale_wal_is_discarded_not_double_applied(self, family, graph):
        """Crash between manifest update and WAL truncate (swap step 2->3)."""
        from repro.delta import WriteAheadLog, records_from_updates

        base, wal = family
        with durable_service(base, wal, update_policy="delta") as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            service.compact()
        # Forge the pre-truncation state: a gen-0 WAL still holding the
        # already-folded record.
        with WriteAheadLog(wal, generation=0) as forged:
            forged.rewrite((), generation=0)
            forged.append(records_from_updates(edges_added=[(0, 1, 1)]))
        mutated = graph.copy()
        mutated.add_edge(0, 1, 1)
        fresh = MatchEngine(mutated, backend="full")
        with durable_service(base, wal) as reopened:
            stats = reopened.statistics()["delta"]
            assert stats["pending_records"] == 0, "stale WAL must be dropped"
            assert stats["wal"]["generation"] == 1
            assert exact(reopened.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )

    def test_policy_trips_background_compaction(self, family):
        base, wal = family
        with durable_service(
            base, wal,
            update_policy="delta",
            auto_compact=True,
            compaction=CompactionPolicy(max_records=2, max_ratio=0),
        ) as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            service.apply_updates(edges_added=[(2, 0, 2)])
            import time

            deadline = time.monotonic() + 10
            while (
                service.statistics()["delta"]["compactions"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            stats = service.statistics()["delta"]
            assert stats["compactions"] == 1
            assert stats["generations"]["current"] == 1
        assert scan_wal(wal).generation == 1

    def test_compact_without_generation_family_still_truncates(self, graph):
        """An in-memory service (no from_index base) can still compact:
        the fold happens, there is just no .ridx family to write."""
        with MatchService(
            graph, backend="full", update_policy="delta", max_workers=1,
            auto_compact=False,
        ) as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            report = service.compact()
            assert report["records_folded"] == 1
            assert report["path"] is None
            assert service.statistics()["delta"]["pending_records"] == 0


class TestCloseReportsCompactorStop:
    def test_close_reports_timed_out_compactor_stop(self, family):
        base, wal = family
        service = durable_service(
            base, wal, update_policy="delta", auto_compact=True,
        )
        service.apply_updates(edges_added=[(0, 1, 1)])  # spins the thread up
        real_stop = service._compactor.stop
        service._compactor.stop = lambda *args, **kwargs: False
        assert service.close() is False
        assert real_stop() is True  # actually join the thread

    def test_clean_close_returns_true(self, family):
        base, wal = family
        service = durable_service(
            base, wal, update_policy="delta", auto_compact=True,
        )
        service.apply_updates(edges_added=[(0, 1, 1)])
        assert service.close() is True


def test_delta_apply_beats_whole_snapshot_rebuild():
    """Logging a delta batch must be >= 5x cheaper than rebuilding the
    snapshot per batch (in practice it is orders of magnitude)."""
    graph = citation_graph(120, num_labels=8, seed=0)
    nodes = sorted(graph.nodes(), key=repr)
    edges = [
        (tail, head) for tail in nodes[:4] for head in nodes[-2:]
        if tail != head and not graph.has_edge(tail, head)
    ][:6]
    assert len(edges) >= 3
    with MatchService(
        graph, backend="full", update_policy="delta", auto_compact=False
    ) as service:
        started = time.perf_counter()
        for edge in edges:
            service.apply_updates(edges_added=[edge])
        delta = (time.perf_counter() - started) / len(edges)
        service.top_k(QUERY, 5)  # the first read folds the overlay
    rebuilt = graph.copy()
    started = time.perf_counter()
    for edge in edges[:3]:
        rebuilt.add_edge(*edge)
        MatchEngine(rebuilt, backend="full")
    rebuild = (time.perf_counter() - started) / 3
    assert rebuild / delta >= 5.0, (rebuild, delta)
