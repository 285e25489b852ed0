"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (measured untraced);
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics derived from the traced run's spans plus the tracing
overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds diagnostics (input digests, counts, host-speed probe).
Workload and metric names, units and bounds come from ``BENCHMARK.json``
next to ``perfbench/``.  Scratch files, spans and the determinism record
go to ``.perfbench/`` under the current directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _entry in (str(SRC), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

# Measure the configuration a default user gets: no kill switches,
# no opt-in numpy binds, no lock sanitizer.
for _flag in ("REPRO_KERNEL", "REPRO_COMPACT_NUMPY", "REPRO_LOCKCHECK"):
    os.environ.pop(_flag, None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

WORKDIR = Path(".perfbench")
CATALOGUE = ROOT / "BENCHMARK.json"


def load_catalogue() -> dict:
    """``BENCHMARK.json``: the workloads and metrics; exit 2 without it."""
    try:
        return json.loads(CATALOGUE.read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {CATALOGUE}: {exc}", file=sys.stderr)
        sys.exit(2)


def _import_program():
    """Import the program from this checkout's ``src``; exit 2 without it."""
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        print(f"perfbench: repro imported from {location}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def parse_args(catalogue: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in catalogue["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=catalogue["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run(catalogue: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    """Run one workload; return ``(result line, diagnostics)``."""
    from perfbench import harness, workloads

    probe_start = harness.host_probe_seconds()
    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scale = workloads.SCALES[args.scale]
    bench = workloads.Run(args.workload, args.seed, args.seconds, scale, workdir)
    prepare, serve, extras = workloads.WORKLOADS[args.workload]

    inputs = prepare(bench)
    digests = workloads.input_digests(inputs)
    problems = []
    other = workloads.Run(args.workload, args.seed + 1, args.seconds, scale, workdir)
    if other.rng("requests").random() == bench.rng("requests").random():
        problems.append(f"seed {args.seed + 1} draws the same traffic as seed {args.seed}")

    gc.collect()
    untraced = serve(bench, inputs, harness.NullTracer())
    served = untraced
    layers = {}
    notes = []
    if args.trace:
        tracer = harness.Tracer()
        gc.collect()
        served = serve(bench, inputs, tracer)
        if served.counts != untraced.counts:
            problems.append(
                f"traced counts {served.counts} differ from untraced {untraced.counts}"
            )
        trace_path = workdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        layers = dict(served.layers)
        if extras is not None:
            layers.update(extras(bench, inputs))
        base = workloads.end_to_end(untraced)["ops_per_s"]
        traced = workloads.end_to_end(served)["ops_per_s"]
        layers["trace.overhead_frac"] = base / traced - 1.0
        notes.append(f"spans written to {trace_path}")

    counts = {**digests, **untraced.counts}
    key = ":".join((
        args.workload, f"seed={args.seed}", f"seconds={args.seconds}",
        f"scale={args.scale}", harness.source_digest(SRC, ROOT / "perfbench"),
    ))
    drift = harness.DeterminismGuard(WORKDIR / "determinism.json").check(key, counts)
    problems.extend(f"determinism: {line}" for line in drift)
    passes = [untraced] if served is untraced else [untraced, served]
    for done in passes:
        problems.extend(done.mismatches)
        if done.phase.first_error:
            problems.append(f"operation failed:\n{done.phase.first_error}")

    probe_end = harness.host_probe_seconds()
    if args.trace:
        layers["host.probe_s"] = (probe_start + probe_end) / 2
        metrics = {}
        for metric in catalogue["per_layer"]:
            name = metric["name"]
            if name not in layers:
                notes.append(f"{name}: not measured on {args.workload}")
            metrics[name] = {"value": float(layers.get(name, 0.0)), "unit": metric["unit"]}
    else:
        values = workloads.end_to_end(served)
        metrics = {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in catalogue["end_to_end"]
        }
    phase = served.phase
    result = {
        "correct": not problems,
        "attempted": sum(done.phase.attempted for done in passes),
        "failed": sum(done.phase.failed + len(done.mismatches) for done in passes),
        "metrics": metrics,
    }
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "reads": len(phase.read_ms),
        "writes": len(phase.write_ms),
        "answers_checked": served.checked,
        "setup_samples_s": served.setup_s,
        "raw_ops_per_s": phase.completed / phase.raw_wall,
        "phase_host_factor": harness.median(phase.probes) / harness.REFERENCE_PROBE_S,
        "host_probe_s": [probe_start, probe_end],
        "counts": counts,
        "notes": notes,
        "problems": problems,
    }
    return result, diagnostics


def main(argv=None) -> int:
    catalogue = load_catalogue()
    args = parse_args(catalogue, argv)
    _import_program()
    from perfbench import harness

    try:
        result, diagnostics = run(catalogue, args)
    finally:
        harness.stop_processes()
    for problem in diagnostics["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
