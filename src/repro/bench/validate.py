"""Schema gate for the committed ``BENCH_*.json`` perf trajectory.

The documents at the repo root record the historical canonical suite
(``BENCH_PR4.json`` is schema version 1 ... ``BENCH_PR9.json`` is
version 6).  The drivers that produced them are gone — ``perfbench/``
is the one measurement harness now — but the documents stay readable
and checkable, and ``repro bench validate`` runs this module over them.

Versions: 1 records the raw ``peak_rss_kb``; 2 normalizes memory to
bytes (``peak_rss_unit == "bytes"`` asserted) and adds the cold-start
section; 3 adds ``sharding``; 4 ``mixed_rw``; 5 ``replication``; 6
``compiled`` (whose ``kernel_numpy`` mode may be ``null``).
"""

from __future__ import annotations

BENCH_KIND = "repro-bench-suite"
BENCH_VERSION = 6

_NUM = (int, float)
_CELL_FIELDS = {
    "backend": str,
    "algorithm": str,
    "k": int,
    "query": str,
    "wall_seconds": _NUM,
    "blocks_read": int,
    "tables_opened": int,
    "entries_read": int,
    "matches": int,
}
_TOP_FIELDS = {
    "kind": str,
    "version": int,
    "commit": str,
    "python": str,
    "quick": bool,
    "workload": dict,
    "backend_build": list,
    "cells": list,
    "closure_memory": dict,
    "block_pull": dict,
}
_V1_FIELDS = {"peak_rss_kb": int}
_V2_FIELDS = {"peak_rss_bytes": int, "peak_rss_unit": str, "cold_start": dict}
_V3_FIELDS = dict(_V2_FIELDS, sharding=dict)
_V4_FIELDS = dict(_V3_FIELDS, mixed_rw=dict)
_V5_FIELDS = dict(_V4_FIELDS, replication=dict)
_V6_FIELDS = dict(_V5_FIELDS, compiled=dict)
_VERSION_FIELDS = {
    1: _V1_FIELDS,
    2: _V2_FIELDS,
    3: _V3_FIELDS,
    4: _V4_FIELDS,
    5: _V5_FIELDS,
    6: _V6_FIELDS,
}

#: One timed run: the shape shared by the serving sections.
_RUN_FIELDS = {
    "requests": int,
    "wall_seconds": _NUM,
    "throughput_qps": _NUM,
    "p50_ms": _NUM,
    "p99_ms": _NUM,
}
_SHARDING_CONFIG_FIELDS = dict(
    _RUN_FIELDS,
    shards=int,
    effective_shards=int,
    clients=int,
    speedup_vs_single=_NUM,
)
_MIXED_RW_APPLY_FIELDS = {
    "batches": int,
    "total_seconds": _NUM,
    "mean_ms": _NUM,
    "p50_ms": _NUM,
    "p99_ms": _NUM,
}
_MIXED_RW_READ_FIELDS = {"requests": int, "p50_ms": _NUM, "p99_ms": _NUM}
_COLD_START_SIDE_FIELDS = {
    "index_bytes": int,
    "mapped_bytes": int,
    "load_seconds": _NUM,
    "first_query_seconds": _NUM,
    "total_seconds": _NUM,
    "matches": int,
    "peak_rss_bytes": int,
}
_REPLICATION_RUN_FIELDS = dict(_RUN_FIELDS, failovers=int, worker_restarts=int)
_REPLICATION_KILL_FIELDS = dict(
    _REPLICATION_RUN_FIELDS,
    kill_at=int,
    post_kill_p50_ms=_NUM,
    post_kill_p99_ms=_NUM,
    post_kill_max_ms=_NUM,
)


def _is(value, kind) -> bool:
    """``isinstance`` that never lets a bool pass for a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _require(obj: dict, fields, where: str, errors: list[str]) -> None:
    for field in fields:
        if field not in obj:
            errors.append(f"{where} missing {field!r}")


def _check_fields(
    obj: dict, shape: dict, where: str, errors: list[str], nonnegative=()
) -> None:
    """Missing, mistyped and (for ``nonnegative`` fields) negative values."""
    for field, kind in shape.items():
        if field not in obj:
            errors.append(f"{where} missing {field!r}")
        elif not _is(obj[field], kind):
            errors.append(f"{where}.{field} is not {kind}")
        elif field in nonnegative and obj[field] < 0:
            errors.append(f"{where}.{field} is negative")


def _check_sections(
    parent: dict, names, shape: dict, where: str, errors: list[str],
    nonnegative: bool = True,
) -> None:
    """Each ``parent[name]`` must be an object of ``shape``."""
    for name in names:
        section = parent.get(name)
        if not isinstance(section, dict):
            errors.append(f"{where}.{name} is not an object")
            continue
        _check_fields(
            section, shape, f"{where}.{name}", errors,
            shape if nonnegative else (),
        )


def _check_number(obj: dict, field: str, where: str, errors: list[str]) -> None:
    value = obj.get(field)
    if not _is(value, _NUM):
        errors.append(f"{where}.{field} is not a number")
    elif value < 0:
        errors.append(f"{where}.{field} is negative")


def _validate_cold_start(cold: dict, errors: list[str]) -> None:
    _require(
        cold, ("nodes", "query", "k", "runs", "speedup", "load_speedup"),
        "cold_start", errors,
    )
    _check_sections(
        cold, ("json", "binary"), _COLD_START_SIDE_FIELDS, "cold_start", errors
    )


def _validate_sharding(sharding: dict, errors: list[str]) -> None:
    _require(
        sharding, ("cpu_count", "nodes", "seed", "k", "queries"),
        "sharding", errors,
    )
    if not _is(sharding.get("cpu_count"), int):
        errors.append("sharding.cpu_count is not an int")
    _check_sections(
        sharding, ("baseline", "baseline_cached"), _RUN_FIELDS, "sharding",
        errors, nonnegative=False,
    )
    configs = sharding.get("configs")
    if not isinstance(configs, list) or not configs:
        errors.append("sharding.configs is missing or empty")
        return
    for index, config in enumerate(configs):
        where = f"sharding.configs[{index}]"
        if not isinstance(config, dict):
            errors.append(f"{where} is not an object")
            continue
        _check_fields(
            config, _SHARDING_CONFIG_FIELDS, where, errors,
            _SHARDING_CONFIG_FIELDS,
        )


def _validate_mixed_rw(mixed: dict, errors: list[str]) -> None:
    _require(
        mixed, ("nodes", "seed", "k", "queries", "updates"), "mixed_rw", errors
    )
    _check_number(mixed, "apply_speedup_vs_rebuild", "mixed_rw", errors)
    _check_sections(
        mixed, ("delta_apply", "eager_apply", "rebuild_apply"),
        _MIXED_RW_APPLY_FIELDS, "mixed_rw", errors,
    )
    _check_sections(
        mixed, ("read_baseline", "reads_during_writes", "reads_during_compaction"),
        _MIXED_RW_READ_FIELDS, "mixed_rw", errors,
    )


def _validate_replication(replication: dict, errors: list[str]) -> None:
    _require(
        replication,
        ("cpu_count", "nodes", "seed", "k", "queries", "shards", "replication"),
        "replication", errors,
    )
    _check_number(
        replication, "failover_post_kill_p99_speedup", "replication", errors
    )
    _check_sections(
        replication, ("baseline",), _REPLICATION_RUN_FIELDS, "replication",
        errors,
    )
    _check_sections(
        replication, ("failover", "single_restart"), _REPLICATION_KILL_FIELDS,
        "replication", errors,
    )


def _validate_compiled(compiled: dict, errors: list[str]) -> None:
    _require(
        compiled, ("nodes", "edges", "seed", "k", "queries", "plans"),
        "compiled", errors,
    )
    plans = compiled.get("plans")
    if not isinstance(plans, list) or not plans:
        errors.append("compiled.plans is missing or empty")
    else:
        for index, plan in enumerate(plans):
            if not isinstance(plan, dict):
                errors.append(f"compiled.plans[{index}] is not an object")
                continue
            for field in ("query", "algorithm", "tier"):
                if not isinstance(plan.get(field), str):
                    errors.append(
                        f"compiled.plans[{index}].{field} is not a string"
                    )
    # Runners without numpy recorded ``kernel_numpy: null``.
    modes = ["interpreter", "kernel"]
    if compiled.get("kernel_numpy") is not None:
        modes.append("kernel_numpy")
    _check_sections(compiled, modes, _RUN_FIELDS, "compiled", errors)
    _check_number(compiled, "speedup_kernel", "compiled", errors)
    numpy_speedup = compiled.get("speedup_kernel_numpy")
    if numpy_speedup is not None and not _is(numpy_speedup, _NUM):
        errors.append("compiled.speedup_kernel_numpy is not a number or null")


_SECTION_VALIDATORS = (
    (2, "cold_start", _validate_cold_start),
    (3, "sharding", _validate_sharding),
    (4, "mixed_rw", _validate_mixed_rw),
    (5, "replication", _validate_replication),
    (6, "compiled", _validate_compiled),
)


def validate_bench_document(document) -> list[str]:
    """Schema errors of a BENCH document (empty list == valid).

    Each version requires every section of the versions before it (see
    the module docstring); version 2 and later also assert that memory
    figures are recorded in bytes.
    """
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    version = document.get("version")
    if version not in tuple(_VERSION_FIELDS):
        return [f"unsupported version {version!r}"]
    errors: list[str] = []
    for field, kind in dict(_TOP_FIELDS, **_VERSION_FIELDS[version]).items():
        if field not in document:
            errors.append(f"missing field {field!r}")
        elif not isinstance(document[field], kind):
            errors.append(f"field {field!r} is not {kind}")
    if errors:
        return errors
    if document["kind"] != BENCH_KIND:
        errors.append(f"kind is {document['kind']!r}, wanted {BENCH_KIND!r}")
    if version >= 2 and document["peak_rss_unit"] != "bytes":
        errors.append(
            f"peak_rss_unit is {document['peak_rss_unit']!r}, must be "
            "'bytes' (ru_maxrss is KiB on Linux but bytes on macOS — "
            "normalize before recording)"
        )
    for since, section, validate in _SECTION_VALIDATORS:
        if version >= since:
            validate(document[section], errors)
    for index, cell in enumerate(document["cells"]):
        if not isinstance(cell, dict):
            errors.append(f"cells[{index}] is not an object")
            continue
        _check_fields(
            cell, _CELL_FIELDS, f"cells[{index}]", errors,
            ("wall_seconds", "blocks_read", "k"),
        )
    _require(
        document["closure_memory"],
        ("pair_count", "dict_bytes", "compact_bytes", "reduction"),
        "closure_memory", errors,
    )
    _require(
        document["block_pull"],
        ("entries", "legacy_seconds", "compact_seconds", "speedup"),
        "block_pull", errors,
    )
    _require(
        document["workload"],
        ("family", "nodes", "edges", "labels", "seed", "queries"),
        "workload", errors,
    )
    return errors
