"""The ``BENCH_*.json`` schema gate, over the committed documents.

Every case starts from a fresh copy of a committed document (the v6
``BENCH_PR9.json`` unless stated) and mutates it: the validator must
accept each historical version as committed and name what a broken copy
gets wrong.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.validate import (
    BENCH_KIND,
    BENCH_VERSION,
    validate_bench_document,
)
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
COMMITTED = {
    json.loads(path.read_text())["version"]: path
    for path in sorted(ROOT.glob("BENCH_PR*.json"))
}


@pytest.fixture(scope="module")
def committed_documents():
    return {
        version: json.loads(path.read_text())
        for version, path in COMMITTED.items()
    }


@pytest.fixture
def newest_document(committed_documents):
    """A private copy of the newest committed document (schema v6)."""
    return copy.deepcopy(committed_documents[BENCH_VERSION])


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_bench_document([]) == ["document is not a JSON object"]

    def test_rejects_missing_fields(self):
        errors = validate_bench_document(
            {"kind": BENCH_KIND, "version": BENCH_VERSION}
        )
        assert any("missing field" in e for e in errors)

    def test_rejects_unknown_versions(self):
        assert validate_bench_document({"version": 99}) == [
            "unsupported version 99"
        ]

    def test_accepts_legacy_v1_documents(self, newest_document):
        legacy = newest_document
        legacy["version"] = 1
        legacy["peak_rss_kb"] = 12345
        for field in ("peak_rss_bytes", "peak_rss_unit", "cold_start"):
            del legacy[field]
        assert validate_bench_document(legacy) == []

    def test_asserts_rss_unit(self, newest_document):
        broken = newest_document
        broken["peak_rss_unit"] = "kb"
        errors = validate_bench_document(broken)
        assert any("peak_rss_unit" in e for e in errors)

    def test_rejects_broken_cold_start(self, newest_document):
        broken = newest_document
        del broken["cold_start"]["binary"]["load_seconds"]
        broken["cold_start"]["json"]["peak_rss_bytes"] = -1
        errors = validate_bench_document(broken)
        assert any("cold_start.binary missing 'load_seconds'" in e for e in errors)
        assert any("cold_start.json.peak_rss_bytes is negative" in e for e in errors)

    def test_rejects_wrong_kind_and_broken_cells(self, committed_documents):
        broken = copy.deepcopy(committed_documents[BENCH_VERSION])
        broken["kind"] = "something-else"
        assert any("kind is" in e for e in validate_bench_document(broken))
        broken = copy.deepcopy(committed_documents[BENCH_VERSION])
        del broken["cells"][0]["wall_seconds"]
        broken["cells"][1]["blocks_read"] = "many"
        errors = validate_bench_document(broken)
        assert any("missing 'wall_seconds'" in e for e in errors)
        assert any("blocks_read" in e for e in errors)


class TestCLI:
    def test_validate_command(self, tmp_path, newest_document, capsys):
        out = tmp_path / "bench.json"
        out.write_text(json.dumps(newest_document))
        assert main(["bench", "validate", str(out)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        # Schema findings exit 1 (the CLI's uniform findings code);
        # exit 2 is reserved for usage errors like a missing file.
        assert main(["bench", "validate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validate_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["bench", "validate", str(tmp_path / "ghost.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestShardingSection:
    def test_v3_document_requires_sharding(self, committed_documents):
        broken = copy.deepcopy(committed_documents[3])
        del broken["sharding"]
        errors = validate_bench_document(broken)
        assert any("sharding" in e for e in errors)
        broken = copy.deepcopy(committed_documents[3])
        del broken["sharding"]["baseline"]
        broken["sharding"]["configs"][0].pop("speedup_vs_single")
        errors = validate_bench_document(broken)
        assert any("baseline" in e for e in errors)
        assert any("speedup_vs_single" in e for e in errors)

    def test_v2_documents_still_validate(self, newest_document):
        legacy = newest_document
        legacy["version"] = 2
        del legacy["sharding"]
        assert validate_bench_document(legacy) == []

    def test_committed_bench_documents_validate(self, committed_documents):
        assert sorted(committed_documents) == [1, 2, 3, 4, 5, 6]
        for version, document in committed_documents.items():
            assert validate_bench_document(document) == [], COMMITTED[version]


class TestMixedRwSection:
    def test_v4_document_requires_mixed_rw(self, committed_documents):
        broken = copy.deepcopy(committed_documents[4])
        del broken["mixed_rw"]
        errors = validate_bench_document(broken)
        assert any("mixed_rw" in e for e in errors)
        broken = copy.deepcopy(committed_documents[4])
        del broken["mixed_rw"]["delta_apply"]["p99_ms"]
        broken["mixed_rw"]["read_baseline"]["requests"] = -1
        broken["mixed_rw"]["apply_speedup_vs_rebuild"] = "fast"
        errors = validate_bench_document(broken)
        assert any("delta_apply missing 'p99_ms'" in e for e in errors)
        assert any("read_baseline.requests is negative" in e for e in errors)
        assert any("apply_speedup_vs_rebuild" in e for e in errors)

    def test_v3_documents_still_validate(self, newest_document):
        legacy = newest_document
        legacy["version"] = 3
        del legacy["mixed_rw"]
        assert validate_bench_document(legacy) == []


class TestReplicationSection:
    def test_v5_document_requires_replication(self, committed_documents):
        broken = copy.deepcopy(committed_documents[5])
        del broken["replication"]
        errors = validate_bench_document(broken)
        assert any("replication" in e for e in errors)
        broken = copy.deepcopy(committed_documents[5])
        del broken["replication"]["failover"]["post_kill_p99_ms"]
        broken["replication"]["baseline"]["requests"] = -3
        broken["replication"]["failover_post_kill_p99_speedup"] = "fast"
        errors = validate_bench_document(broken)
        assert any("failover missing 'post_kill_p99_ms'" in e for e in errors)
        assert any("baseline.requests is negative" in e for e in errors)
        assert any("failover_post_kill_p99_speedup" in e for e in errors)

    def test_v4_documents_still_validate(self, newest_document):
        legacy = newest_document
        legacy["version"] = 4
        del legacy["replication"]
        assert validate_bench_document(legacy) == []


class TestCompiledSection:
    def test_v6_document_requires_compiled(self, committed_documents):
        broken = copy.deepcopy(committed_documents[6])
        del broken["compiled"]
        errors = validate_bench_document(broken)
        assert any("compiled" in e for e in errors)
        broken = copy.deepcopy(committed_documents[6])
        del broken["compiled"]["kernel"]["p99_ms"]
        broken["compiled"]["interpreter"]["requests"] = -1
        broken["compiled"]["speedup_kernel"] = "fast"
        errors = validate_bench_document(broken)
        assert any("kernel missing 'p99_ms'" in e for e in errors)
        assert any("interpreter.requests is negative" in e for e in errors)
        assert any("speedup_kernel" in e for e in errors)

    def test_kernel_numpy_may_be_null(self, newest_document):
        # Runners without numpy recorded null for the vectorized mode.
        document = newest_document
        document["compiled"]["kernel_numpy"] = None
        document["compiled"]["speedup_kernel_numpy"] = None
        assert validate_bench_document(document) == []

    def test_v5_documents_still_validate(self, newest_document):
        legacy = newest_document
        legacy["version"] = 5
        del legacy["compiled"]
        assert validate_bench_document(legacy) == []
