"""Runner of the dialectid benchmark: set-up, timed passes, metrics, record.

With tracing off, the run repeats untraced passes until `--seconds` have
passed and reports the end-to-end metrics: set-up time and peak memory as
measured, and each timing in ref units (see gauge.py), the median over the
untraced passes after the first.  With tracing on, it traces the set-up,
then alternates untraced and traced passes (at least two untraced, one
traced) and reports every layer's calls, self and total time in seconds and
counters over the set-up plus the first traced pass, along with the tracing
overhead.

Besides the result line, each run writes a record (stamp, passes, checks,
hashes, failures by exception type) and, when traced, its spans under
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import tracing
from gauge import Gauge
from workloads import WORKLOADS, Pass, Sizes

DEFAULT_SEED = 2025

# end-to-end metrics and their units; the same names and units as BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "items_per_kref": "1/kref",
    "latency_ref.p50": "ref",
    "latency_ref.p95": "ref",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {
    "trace.wall_s_traced": "s",
    "trace.wall_s_untraced": "s",
    "trace.overhead_ratio": "ratio",
    "trace.top_level_coverage": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer in tracing.LAYERS:
        name = layer.name
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
        for key in tracing.COUNTS.get(name, ()):
            units[f"{name}.{key}"] = "bytes" if "bytes" in key else "count"
        if name in tracing.RATIOS:
            units[f"{name}.{tracing.RATIOS[name][0]}"] = "ratio"
        if name in tracing.FAILURE_LAYERS:
            units[f"{name}.failures"] = "count"
    units.update(TRACE_METRICS)
    return units


# --- stamp ---

def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    """Digest of the measured sources, which identifies them without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "dialectid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))


def stamp(root: Path, seed: int) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def peak_rss_mb(children_before: float) -> tuple[float, float]:
    """Peak resident set of this process and of its largest child.

    The children's figure survives exec, so a value left by whatever
    launched this process counts only if a child of this run exceeded it.
    """
    children = _maxrss_mb(resource.RUSAGE_CHILDREN)
    return _maxrss_mb(resource.RUSAGE_SELF), children if children > children_before else 0.0


# --- run ---

def in_refs(gauge: Gauge, p: Pass) -> tuple[float, float, list[float], list[float]]:
    """A pass's program time in seconds and in ref units, then the same for
    each completed request; the reference task's own time is taken out."""
    refs_per_s = gauge.refs_per_s(*p.window)
    wall_s = p.wall_s - gauge.spent_s(*p.window)
    latencies_s = [hi - lo - gauge.spent_s(lo, hi) for lo, hi in filter(None, p.spans)]
    return wall_s, wall_s * refs_per_s, latencies_s, [x * refs_per_s for x in latencies_s]


def _percentile(values: list[float], q: float) -> float:
    """nan when every request failed."""
    return float(np.percentile(values, q)) if values else float("nan")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                  sizes: Sizes = Sizes(), corrupt: int = 0) -> dict:
    """Run one workload and return its record (see module docstring)."""
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    extra = {"corrupt": corrupt} if corrupt else {}
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    children_before = _maxrss_mb(resource.RUSAGE_CHILDREN)
    t_zero = time.perf_counter()
    try:
        w = WORKLOADS[workload](seed, sizes, work_dir, tracer, **extra)
        if tracer:
            tracer.install()
        start = time.perf_counter()
        w.setup()
        setup_s = time.perf_counter() - start
        if tracer:
            tracer.uninstall()

        untraced: list[Pass] = []
        traced: list[Pass] = []
        layers: dict | None = None
        gauge = Gauge()
        start = time.perf_counter()
        while True:
            in_trace = trace and len(untraced) > len(traced)
            with gauge:
                if in_trace:
                    tracer.install()
                p = w.run_pass()
                if in_trace:
                    tracer.uninstall()
            if in_trace and layers is None:
                layers = tracer.layer_metrics(gauge.spent_s)
                # share of the pass inside top-level spans; the same pass on both
                # sides, as pass-to-pass machine noise exceeds the gap measured
                layers["trace.top_level_coverage"] = (
                    tracer.top_level_s(*p.window, gauge.spent_s) / in_refs(gauge, p)[0])
            w.check(p)
            (traced if in_trace else untraced).append(p)
            # stop at the pass boundary nearest the deadline
            if time.perf_counter() - start + p.wall_s / 2 >= seconds and len(untraced) > 1 \
                    and (traced or not trace):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # Timings are in ref units (see gauge.py): a shared host's speed swings by
    # up to 2x with other tenants' load, in phases longer than a run.  Each is
    # the median over the run's untraced passes, or over all their requests,
    # after the first, which warms caches and lazy set-up.
    timed = [in_refs(gauge, p) for p in untraced[1:]]
    raw_walls, walls = [t[0] for t in timed], [t[1] for t in timed]
    raw_latencies = [x for t in timed for x in t[2]]
    latencies = [x for t in timed for x in t[3]]
    own_mb, children_mb = peak_rss_mb(children_before)
    metrics = {
        "setup_s": setup_s,
        "wall_ref": float(np.median(walls)),
        "items_per_kref": float(np.median([1000.0 * p.items / wall
                                           for p, wall in zip(untraced[1:], walls)])),
        "latency_ref.p50": _percentile(latencies, 50),
        "latency_ref.p95": _percentile(latencies, 95),
        "peak_rss_mb": own_mb + children_mb,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stamp": stamp(root, seed),
        "sizes": asdict(sizes),
        "correct": failed == 0 and not w.problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": w.problems,
        "measured": w.measured,
        "hashes": w.hashes,
        "metrics": metrics,
        "latency_samples": len(latencies),
        # the same timings in seconds, for reading on one host at one time
        "seconds_as_timed": {
            "wall_s": float(np.median(raw_walls)),
            "latency_ms.p50": 1000.0 * _percentile(raw_latencies, 50),
            "latency_ms.p95": 1000.0 * _percentile(raw_latencies, 95),
            "ref_task_us": 1e6 * float(np.median(gauge.durations)),
            "ref_samples": len(gauge.durations),
        },
        "peak_rss_mb": {"self": own_mb, "children": children_mb},
        "passes": [{"traced": i >= len(untraced), "warm_up": i == 0, "wall_s": p.wall_s,
                    "items": p.items, "attempted": p.attempted, "failed": p.failed,
                    "wall_ref": walls[i - 1] if 0 < i < len(untraced) else None}
                   for i, p in enumerate(passes)],
    }
    if tracer:
        traced_refs = [in_refs(gauge, p) for p in traced]
        layers.update({
            "trace.wall_s_traced": float(np.median([t[0] for t in traced_refs])),
            "trace.wall_s_untraced": float(np.median(raw_walls)),
            "trace.overhead_ratio": float(np.median([t[1] for t in traced_refs])
                                          / np.median(walls) - 1.0),
        })
        record["per_layer"] = layers
        record["failures_by_type"] = {
            name: dict(errors) for name, errors in tracer.errors.items() if errors}
        spans = out_dir / f"{workload}-seed{seed}-spans.csv"
        tracer.write_spans(str(spans), t_zero)
        record["spans_file"] = str(spans.relative_to(root))
    suffix = "trace" if trace else "e2e"
    with open(out_dir / f"{workload}-seed{seed}-{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def result_line(record: dict) -> str:
    """The final stdout line: correctness, counts and the metrics of this mode."""
    if record["trace"]:
        units = per_layer_units()
        values = record["per_layer"]
    else:
        units = END_TO_END
        values = record["metrics"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


def describe(record: dict) -> str:
    s = record["stamp"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
        f"git={s['git_sha']} src={s['source_sha256'][:12]} python={s['python']} "
        f"numpy={s['numpy']} blas=[{s['blas']}] threads={s['blas_threads']} "
        f"nproc={s['nproc']}",
        "passes: " + " ".join(
            f"{p['wall_s']:.3f}s{'(traced)' if p['traced'] else ''}" for p in record["passes"]),
        f"attempted {record['attempted']}, failed {record['failed']}, "
        f"error_rate {record['error_rate']:.4f}, "
        f"latency samples {record['latency_samples']}, "
        f"peak RSS self {record['peak_rss_mb']['self']:.1f} MB, "
        f"children {record['peak_rss_mb']['children']:.1f} MB",
    ]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:<16} {value:.6g} {END_TO_END[name]}")
    lines.append("as timed: " + ", ".join(
        f"{k} {v:.6g}" for k, v in record["seconds_as_timed"].items()))
    for name, value in record.get("per_layer", {}).items():
        if name.startswith("trace.") or name.endswith(".total_s"):
            lines.append(f"  {name:<40} {value:.6g}")
    for name, errors in record.get("failures_by_type", {}).items():
        lines.append(f"  failures in {name}: {errors}")
    lines.append("checked: " + ", ".join(f"{k} {v:.4f}" for k, v in record["measured"].items()))
    lines.extend(f"  CHECK FAILED: {p}" for p in record["problems"])
    return "\n".join(lines)


def main(argv: list[str] | None, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(describe(record))
    print(result_line(record), flush=True)
    return 0
