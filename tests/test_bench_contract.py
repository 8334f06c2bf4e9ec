"""The benchmark's trace hooks and counters against the pipeline they read.

bench/tracing.py replaces names of `auramimo.pipeline` with timing
wrappers; a name the pipeline no longer calls would silently drop a span
and the per-layer metric built from it. bench/counters.py reads
attributes of the run result, bench/workloads.py writes configs for
`parse_config` and bench/checks.py reads the written files; a renamed
attribute, a rejected key or a changed file format would fail only in the
benchmark.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from auramimo import (
    MODE_GENERATOR,
    MODE_KEPT_FOCAL,
    MODE_KEPT_PARAMETERS,
    correlation_metrics,
    parse_config,
    pipeline,
    read_tensor_binary,
)
from test_pipeline import make_run_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_hooked_names_are_pipeline_callables():
    hooks = _load("tracing").PIPELINE_HOOKS
    assert hooks
    for attr in hooks:
        assert callable(getattr(pipeline, attr, None)), attr
    assert callable(pipeline.write_outputs)


def test_every_hook_records_a_span(tmp_path, monkeypatch):
    tracing = _load("tracing")
    tracer = tracing.Tracer("contract")
    for attr, name in tracing.PIPELINE_HOOKS.items():
        monkeypatch.setattr(pipeline, attr, tracer.wrap(getattr(pipeline, attr), name))
    # Two segments and two users, so every stage and the metrics run.
    result = pipeline.run(make_run_config(n_snapshots=20))
    pipeline.write_outputs(result, tmp_path / "out")
    recorded = {span["name"] for span in tracer.spans}
    assert recorded == set(tracing.PIPELINE_HOOKS.values())


def test_counters_read_the_run_result(tmp_path):
    result = pipeline.run(make_run_config(n_snapshots=20))  # two segments
    out = tmp_path / "out"
    pipeline.write_outputs(result, out)
    counts = _load("counters").count(result, out)
    assert len(result.segments) == 2
    n_views = sum(len(seg.views.views) for seg in result.segments)
    n_clusters = sum(len(seg.cluster_set.clusters) for seg in result.segments)
    assert counts["sharing.views"] == n_views > 0
    assert counts["clustergen.clusters"] == n_clusters > 0

    views = [v for seg in result.segments for v in seg.views.views.values()]
    clusters = [c for seg in result.segments for c in seg.cluster_set.clusters.values()]
    modes = [v.recalc_mode for v in views]
    assert counts["sharing.views_kept_focal"] == modes.count(MODE_KEPT_FOCAL) > 0
    assert counts["sharing.views_kept_parameters"] == modes.count(MODE_KEPT_PARAMETERS) > 0
    assert counts["sharing.clamped_views"] == sum(v.interior_raw_m < 0.0 for v in views) > 0
    # One FBS solve per sub-array and one LBS solve per cluster with excess
    # delay, each cluster's FBS set read from its generator view.
    generators = {v.cluster_id: v for v in views if v.recalc_mode == MODE_GENERATOR}
    solves = sum(
        len(generators[c.cluster_id].fbs) + 1 for c in clusters if not c.boresight
    )
    assert counts["spherical.focal_solves"] == solves > 0


def test_write_outputs_writes_the_tensor_through_the_pipeline_name(tmp_path, monkeypatch):
    calls = []
    original = pipeline.write_tensor_binary

    def spy(tensor, path):
        calls.append(path)
        original(tensor, path)

    monkeypatch.setattr(pipeline, "write_tensor_binary", spy)
    paths = pipeline.write_outputs(pipeline.run(make_run_config()), tmp_path / "out")
    assert calls == [paths["tensor"]]


@pytest.mark.parametrize("name", ["crowd", "sparse", "wide", "smoke"])
def test_workload_configs_parse(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports counters by name
    workloads = _load("workloads")
    workloads.check_structure(name, parse_config(workloads.make_config(name, 3)))


def test_output_checks_pass_on_a_written_run(tmp_path):
    checks = _load("checks")
    config = make_run_config(n_snapshots=20)  # two segments
    layout = config.layout
    out = tmp_path / "out"
    paths = pipeline.write_outputs(pipeline.run(config), out)
    assert len(layout.segments) == 2
    tensor = read_tensor_binary(paths["tensor"])
    report = correlation_metrics(tensor)
    assert checks.reread_matches_metrics(out, tensor, report, layout.user_ids) == []
    counts = checks.share_counts_conserved(
        out, layout.user_ids, len(layout.segments), config.total_clusters_per_user
    )
    assert counts == []
    assert sorted(checks.digests(out)) == sorted(p.name for p in paths.values())
