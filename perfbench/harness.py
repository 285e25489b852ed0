"""Measurement plumbing shared by every workload.

Nothing here knows about a particular workload: a closed-loop phase
recorder, percentiles, resident-set sampling, the host-speed probe and
host-normalised timing, input digests, the span tracer used by the
traced run, and the reaping of every process a run started.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import json
import math
import multiprocessing
import os
import random
import resource
import time
import traceback
from pathlib import Path


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in 0..100)."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# Resident set
# ----------------------------------------------------------------------
_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> int:
    """Resident set of this process now (falls back to the high-water mark)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def process_hwm_bytes(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# Host-speed probe
# ----------------------------------------------------------------------
#: The probe's time on the reference host, a 2-CPU x86-64 VM running
#: CPython 3.11 in its faster state.  Host-normalised times are in
#: seconds of that host: raw time x REFERENCE_PROBE_S / probe time.
REFERENCE_PROBE_S = 0.004

_probe_rng = random.Random(20150831)
#: About 5 MB of small tuples: bigger than a core's private caches.
_PROBE_ITEMS = [
    (_probe_rng.randrange(1 << 20), _probe_rng.randrange(64)) for _ in range(50_000)
]
del _probe_rng


def host_probe_seconds() -> float:
    """Time a fixed pure-Python reference job: the host's speed right now.

    The job hashes tuples into a fresh dict, pushes and pops a heap and
    walks a list of tuples in a cache-missing order: the kinds of work
    the program does, without touching the program.  On the 2-CPU
    development host its time rose and fell with the program's (the host
    switches between a fast and a 1.6x slower state within seconds),
    while a plain integer loop followed it less closely.
    """
    items = _PROBE_ITEMS
    started = time.perf_counter()
    table = {}
    for index, item in enumerate(items[:3000]):
        table[item] = index
    heap: list = []
    total = 0
    for item in items[3000:6000]:
        total += table.get(item, 0)
        heapq.heappush(heap, (item[1], item[0]))
    while heap:
        total += heapq.heappop(heap)[0]
    count, at = len(items), 0
    for _ in range(8000):
        key, value = items[at]
        total += value
        at = (at * 1103515245 + 12345 + key) % count
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the job's result live
        raise AssertionError
    return elapsed


#: Probes before each set-up; their median normalises its time.
SETUP_PROBES = 5


def timed_setups(make, repeats: int):
    """Time ``repeats`` set-ups in a row; return ``(last service, seconds)``.

    Each time is host-normalised by the median of ``SETUP_PROBES``
    probes taken just before it: a set-up is one long call, and over
    many runs on the development host that median followed its time
    better than a single probe on either side.  Every service but the
    last is closed again.
    """
    service, seconds = None, []
    for _ in range(repeats):
        if service is not None:
            service.close()
            service = None
        gc.collect()
        probe = median([host_probe_seconds() for _ in range(SETUP_PROBES)])
        started = time.perf_counter()
        service = make()
        elapsed = time.perf_counter() - started
        seconds.append(elapsed * REFERENCE_PROBE_S / probe)
    return service, seconds


def stop_processes() -> None:
    """Stop and wait for every process this run started.

    Services close their own workers; this also reaps any child left
    behind by a failed run and then stops ``multiprocessing``'s resource
    tracker, which the ``spawn`` start method launches on first use and
    which would otherwise outlive the run.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # closes its pipe, then waits


# ----------------------------------------------------------------------
# Digests (determinism guard)
# ----------------------------------------------------------------------
def graph_digest(graph) -> str:
    """SHA-256 over the graph's sorted nodes (id, label) and edges."""
    digest = hashlib.sha256()
    for node in sorted(graph.nodes()):
        digest.update(f"n\t{node!r}\t{graph.label(node)!r}\n".encode())
    for tail, head, weight in sorted(graph.edges()):
        digest.update(f"e\t{tail!r}\t{head!r}\t{weight!r}\n".encode())
    return digest.hexdigest()


def list_digest(items) -> str:
    """SHA-256 of a request (or write) list's ``repr``."""
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def source_digest(*roots: Path) -> str:
    """SHA-256 over every ``.py`` file under ``roots``: one program version."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(f"{path.relative_to(root.parent).as_posix()}\0".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class DeterminismGuard:
    """Cross-run record of inputs and counts, keyed by run identity.

    The key names the workload, seed, length, scale and the digest of
    the program's and the benchmark's sources, so the guard compares
    runs of one program version only: a change that legitimately moves
    a count starts a new record instead of reading as drift.  The first
    run with a key stores its digests and counts in the work directory;
    every later run with the same key must reproduce them exactly.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    def check(self, key: str, record: dict) -> list[str]:
        try:
            stored = json.loads(self.path.read_text())
        except (OSError, ValueError):
            stored = {}
        previous = stored.get(key)
        if previous is None:
            stored[key] = record
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        return [
            f"{name}: {previous.get(name)!r} before, {record.get(name)!r} now"
            for name in sorted(set(previous) | set(record))
            if previous.get(name) != record.get(name)
        ]


# ----------------------------------------------------------------------
# Closed-loop phase recorder
# ----------------------------------------------------------------------
class Phase:
    """One measured phase: per-operation latencies, failures, peak RSS.

    Operations run one at a time on the caller's thread.  A failed
    operation (any exception) is counted, its first traceback is kept
    for the report, and it contributes no latency sample.

    The phase is cut into segments of about ``SEGMENT_S`` seconds with
    the host-speed probe between them, off the clock.  Latencies and
    wall time are host-normalised by the mean of the probes on either
    side of their segment (``read_ms``, ``write_ms``, ``wall``); the raw
    figures stay in ``raw_wall`` and ``probes``.  A caller whose
    operations overlap (``record_read``) drains them and calls
    :meth:`tick` itself.
    """

    RSS_EVERY = 64
    SEGMENT_S = 0.25

    def __init__(self) -> None:
        self.read_ms: list[float] = []
        self.write_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        self.peak_rss = current_rss_bytes()
        self.wall = 0.0
        self.raw_wall = 0.0
        self.probes: list[float] = []
        self.completed = 0
        self._pending: list[tuple[list, float]] = []
        self._segment_started = 0.0

    def start(self) -> None:
        self.probes.append(host_probe_seconds())
        self._segment_started = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._segment_started >= self.SEGMENT_S

    def tick(self, force: bool = False) -> None:
        """Close the open segment when it is due: probe, then normalise it."""
        if not (force or self.due()):
            return
        wall = time.perf_counter() - self._segment_started
        self.probes.append(host_probe_seconds())
        # How much slower than the reference host this segment ran.
        factor = (self.probes[-2] + self.probes[-1]) / 2.0 / REFERENCE_PROBE_S
        self.raw_wall += wall
        self.wall += wall / factor
        for samples, elapsed_ms in self._pending:
            samples.append(elapsed_ms / factor)
        self._pending = []
        self._segment_started = time.perf_counter()

    def stop(self) -> None:
        self.tick(force=True)
        self.completed = len(self.read_ms) + len(self.write_ms)
        self.peak_rss = max(self.peak_rss, current_rss_bytes())

    def _op(self, samples: list[float], fn):
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn()
        except Exception:  # noqa: BLE001 - counted as a failed operation
            self.failed += 1
            if self.first_error is None:
                self.first_error = traceback.format_exc()
            result = None
        else:
            self._pending.append((samples, (time.perf_counter() - started) * 1e3))
        if self.attempted % self.RSS_EVERY == 0:
            self.peak_rss = max(self.peak_rss, current_rss_bytes())
        self.tick()
        return result

    def read(self, fn):
        return self._op(self.read_ms, fn)

    def write(self, fn):
        return self._op(self.write_ms, fn)

    def record_read(self, elapsed_ms: float | None) -> None:
        """Account a read timed elsewhere (``None`` marks a failure)."""
        self.attempted += 1
        if elapsed_ms is None:
            self.failed += 1
        else:
            self._pending.append((self.read_ms, elapsed_ms))


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null

    def request(self, request_id):
        return self._null

    def patched(self, points):
        return self._null


class Tracer:
    """In-memory spans: ``(name, start, end, parent, request, attrs)``.

    Spans nest through a stack, so the tracer serves one thread; the
    traced run drives every layer from the client thread.  ``patched``
    swaps a layer's public function for a wrapper that opens a span
    around each call, and restores the original on exit.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None

    @contextlib.contextmanager
    def request(self, request_id):
        previous, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = previous

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = [
            name,
            time.perf_counter(),
            0.0,
            self._stack[-1] if self._stack else -1,
            self._request,
            attrs,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, function, name: str, note):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if note is not None:
                    record[5].update(note(result))
                return result

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def patched(self, points):
        """Wrap ``(owner, attribute, span name, note)`` call points."""
        restore = []
        try:
            for owner, attribute, name, note in points:
                own = attribute in vars(owner)
                original = getattr(owner, attribute)
                if own:
                    original = vars(owner)[attribute]
                restore.append((owner, attribute, own, original))
                setattr(owner, attribute, self._wrap(original, name, note))
            yield self
        finally:
            for owner, attribute, own, original in reversed(restore):
                if own:
                    setattr(owner, attribute, original)
                else:
                    delattr(owner, attribute)

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's self time in seconds.

        Self time is the span's duration minus the durations of its
        direct children (children nest inside their parent on one
        thread, so they never overlap).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _req, _attrs in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child_time[index])
        return out

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "request", "attrs"],
                    "spans": self.spans,
                }
            )
        )
