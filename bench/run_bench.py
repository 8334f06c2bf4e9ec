"""auramimo benchmark: end-to-end cost of `auramimo run` + `auramimo
metrics` on seeded workloads, and per-stage cost from a traced run.

    python3 bench/run_bench.py --workload crowd|sparse|wide \
        --seed N --seconds S --trace 0|1

Run from the repository root (the simulator is imported from ./src).
The workload configuration is generated from the seed (workloads.py) and
its aura-component structure is asserted before anything is timed. Then
every sample runs in its own fresh child process (sample.py), one at a
time, with BLAS fixed to one thread: a few set-up-only processes first,
then full samples until S seconds are used (at least MIN_SAMPLES).

--trace 0 reports the end-to-end metrics of untraced samples. --trace 1
alternates traced and untraced samples and reports the per-layer metrics
of the traced ones plus the tracing overhead (traced minus untraced
run_s). Metric names and units are those of BENCHMARK.json. Every
sample's outputs are checked (checks.py); output digests and counts must
repeat exactly across the samples of one seed. The last stdout line is
one JSON object {correct, attempted, failed, metrics}. A JSON record with
every sample, the environment and the spans is written under
bench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import counters
import workloads
from tracing import summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_PROCESSES = 5
MIN_SAMPLES = 3
# No new sample starts once it could end after this (runs must end in 180 s).
MAX_WALL_S = 150.0
CHILD_TIMEOUT_S = 160.0
# One BLAS thread keeps workers x BLAS threads <= nproc for every workload;
# with two OpenBLAS threads first-call draw_lsp times jumped from ~0.02 s
# to 0.5-0.7 s in some processes on a 2-CPU host.
BLAS_THREADS = 1

# Per-layer times: sums of (span name, "total_s" or "self_s") terms.
LAYER_TIMES = {
    "lsp.draw_s": [("lsp.draw", "total_s")],
    "grouping.share_table_s": [("grouping.share_table", "total_s")],
    "clustergen.assemble_s": [("clustergen.assemble", "total_s")],
    "spherical.attach_s": [("spherical.attach", "total_s")],
    "sharing.share_s": [("sharing.share", "total_s")],
    "sharing.recalc_s": [("sharing.recalc", "total_s")],
    "coefficients.synthesize_s": [("coefficients.synthesize", "total_s")],
    "coefficients.planar_error_s": [("coefficients.planar_error", "total_s")],
    "metrics.correlation_s": [("metrics.correlation", "total_s")],
    "tensorio.write_s": [("tensorio.write", "total_s")],
    "tensorio.read_s": [("tensorio.read", "total_s")],
    "pipeline.tables_write_s": [("pipeline.write_outputs", "self_s")],
    "pipeline.self_s": [("pipeline.run", "self_s"), ("pipeline.segment", "self_s")],
}
# Per-layer counts observed as span calls.
LAYER_CALLS = {"coefficients.planar_error_calls": "coefficients.planar_error"}


@dataclass
class Sample:
    """One child process: its kind ("setup", "untraced" or "traced"),
    its JSON record, its wall time and its failures."""

    kind: str
    record: dict
    wall_s: float
    errors: list[str] = field(default_factory=list)


def _metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(kind: str, config_path: Path, out: Path, run_id: str) -> Sample:
    out.mkdir(parents=True)
    result_path = out / "sample.json"
    cmd = [
        sys.executable, str(BENCH / "sample.py"), "--config", str(config_path),
        "--out", str(out), "--result", str(result_path), "--run-id", run_id,
    ]
    if kind == "setup":
        cmd.append("--setup-only")
    if kind == "traced":
        cmd.append("--trace")
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Sample(kind, {}, time.perf_counter() - t, [f"{run_id}: timed out"])
    wall = time.perf_counter() - t
    record = json.loads(result_path.read_text()) if result_path.is_file() else {}
    errors = list(record.get("errors", []))
    if proc.returncode != 0 and not errors:
        errors = [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    if record and not Path(record["auramimo"]).resolve().is_relative_to(SRC):
        errors.append(f"imported auramimo from {record['auramimo']}, not {SRC}")
    for sub in out.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    return Sample(kind, record, wall, [f"{run_id}: {e}" for e in errors])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_set": BLAS_THREADS,
        "commit": commit,
    }


def _add_layer_values(record: dict) -> None:
    """Per-layer times ("layer") and span call counts ("calls") of a
    traced sample, from its spans."""
    summary = summarize(record["spans"]["spans"])
    record["layer"] = {
        name: sum(summary.get(span, {}).get(kind, 0.0) for span, kind in terms)
        for name, terms in LAYER_TIMES.items()
    }
    record["calls"] = {
        name: summary.get(span, {}).get("calls", 0) for name, span in LAYER_CALLS.items()
    }


def _repeat_errors(samples: list[Sample], key: str, what: str) -> None:
    """Mark samples whose `key` dict differs from the first sample's."""
    if not samples:
        return
    reference = samples[0].record[key]
    for s in samples[1:]:
        for name in sorted(set(reference) | set(s.record[key])):
            if reference.get(name) != s.record[key].get(name):
                s.errors.append(
                    f"{what} {name} differs between runs: "
                    f"{reference.get(name)!r} vs {s.record[key].get(name)!r}"
                )


def _run_samples(name: str, seed: int, seconds: float, trace: bool, work: Path) -> list[Sample]:
    config_path = work / "config.json"
    start = time.perf_counter()
    samples = [
        _spawn("setup", config_path, work / f"setup{i}", f"{name}-{seed}-setup{i}")
        for i in range(SETUP_PROCESSES)
    ]
    kinds = ["traced", "untraced"] if trace else ["untraced"]
    runs: list[Sample] = []
    while True:
        elapsed = time.perf_counter() - start
        longest = max((s.wall_s for s in runs), default=0.0)
        if len(runs) >= MIN_SAMPLES and elapsed + longest > seconds:
            break
        if runs and elapsed + longest > MAX_WALL_S:
            break
        i = len(runs)
        kind = kinds[i % len(kinds)]
        runs.append(_spawn(kind, config_path, work / f"run{i}", f"{name}-{seed}-{kind}{i}"))
    return samples + runs


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run the samples of one invocation; return the result object and
    the human-readable report lines."""
    import auramimo

    if not Path(auramimo.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"auramimo imported from {auramimo.__file__}, not {SRC}")
    units = _metric_units("per_layer" if trace else "end_to_end")
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workloads.make_config(name, seed), indent=1))
    workloads.check_structure(name, auramimo.load_config(config_path))
    env = _environment()

    start = time.perf_counter()
    samples = _run_samples(name, seed, seconds, trace, work)
    runs = [s for s in samples if s.kind != "setup"]
    complete = [s for s in runs if not s.errors]
    _repeat_errors(complete, "digests", "sha256 of")
    _repeat_errors(complete, "counts", "count")
    traced = [s for s in complete if s.kind == "traced" and not s.errors]
    for s in traced:
        _add_layer_values(s.record)
    _repeat_errors(traced, "calls", "count")
    traced = [s for s in traced if not s.errors]
    untraced = [s for s in complete if s.kind == "untraced" and not s.errors]
    failed = [s for s in samples if s.errors]

    spec = workloads.WORKLOADS[name]
    threads = sorted({s.record.get("blas_threads") for s in complete}, key=str)
    lines = [
        f"workload {name} seed {seed}: {spec.n_users} users x {spec.n_elements} elements x "
        f"{spec.n_snapshots} snapshots, workers {spec.workers}, {spec.structure}",
        "environment: " + ", ".join(f"{k} {v}" for k, v in env.items()),
        f"blas threads seen in children: {threads}",
        f"processes: {len(samples)} attempted ({SETUP_PROCESSES} set-up only, {len(runs)} full "
        f"runs), {len(failed)} failed, {time.perf_counter() - start:.1f} s",
    ]
    lines += [f"FAILED {e}" for s in failed for e in s.errors]
    if not untraced or (trace and not traced):
        raise RuntimeError("no sample completed:\n" + "\n".join(lines))

    series = {
        "setup_s": [s.record["setup_s"] for s in samples if not s.errors],
        "run_s": [s.record["run_s"] for s in untraced],
        "write_s": [s.record["write_s"] for s in untraced],
        "reread_s": [s.record["reread_s"] for s in untraced],
        "coeffs_per_s": [
            s.record["coefficients"] / (s.record["run_s"] + s.record["write_s"])
            for s in untraced
        ],
        "peak_rss_mb": [s.record["peak_rss_mb"] for s in untraced],
    }
    counts = dict(complete[0].record["counts"])
    if trace:
        for metric in LAYER_TIMES:
            series[metric] = [s.record["layer"][metric] for s in traced]
        traced_run_s = [s.record["run_s"] for s in traced]
        series["trace.overhead_s"] = [
            statistics.median(traced_run_s) - statistics.median(series["run_s"])
        ]
        counts.update(traced[0].record["calls"])
        lines.append(
            f"run_s traced {statistics.median(traced_run_s):.6g} s (n={len(traced_run_s)}), "
            f"untraced {statistics.median(series['run_s']):.6g} s (n={len(series['run_s'])})"
        )

    metrics = {}
    for metric, unit in units.items():
        if metric in series:
            q1, med, q3 = _quartiles(series[metric])
            metrics[metric] = {"value": med, "unit": unit}
            lines.append(
                f"{metric:34s} {med:.6g} {unit}  median of {len(series[metric])} "
                f"(q1 {q1:.6g}, q3 {q3:.6g})"
            )
        elif metric in counts:
            label = "computed" if metric in counters.COMPUTED else "counted"
            if metric == "grouping.kept_ratio":
                label += f", base {counts['grouping.subsets_enumerated']} subsets enumerated"
            metrics[metric] = {"value": counts[metric], "unit": unit}
            lines.append(f"{metric:34s} {counts[metric]} {unit}  ({label})")
        else:
            raise RuntimeError(f"BENCHMARK.json names {metric}, which the harness does not measure")
    lines += [f"sha256 {d}  {f}" for f, d in complete[0].record["digests"].items()]

    record_path = work / "record.json"
    record_path.write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "metrics": metrics, "series": series,
        "samples": [
            {"kind": s.kind, "wall_s": s.wall_s, "errors": s.errors,
             **{k: v for k, v in s.record.items() if k != "spans"}}
            for s in samples
        ],
    }, indent=1))
    if trace:
        (work / "spans.json").write_text(json.dumps([s.record["spans"] for s in traced]))
    lines.append(f"record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "auramimo" / "__init__.py").is_file():
        print(f"error: simulator source not found at {SRC}/auramimo", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
