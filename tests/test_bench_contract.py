"""The benchmark's trace hooks against the pipeline they wrap.

bench/tracing.py replaces names of `auramimo.pipeline` with timing
wrappers; a name the pipeline no longer calls would silently drop a span
and the per-layer metric built from it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from auramimo import pipeline
from test_pipeline import make_run_config

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooked_names_are_pipeline_callables():
    hooks = _tracing().PIPELINE_HOOKS
    assert hooks
    for attr in hooks:
        assert callable(getattr(pipeline, attr, None)), attr
    assert callable(pipeline.write_outputs)


def test_every_hook_records_a_span(tmp_path, monkeypatch):
    tracing = _tracing()
    tracer = tracing.Tracer("contract")
    for attr, name in tracing.PIPELINE_HOOKS.items():
        monkeypatch.setattr(pipeline, attr, tracer.wrap(getattr(pipeline, attr), name))
    # Two segments and two users, so every stage and the metrics run.
    result = pipeline.run(make_run_config(n_snapshots=20))
    pipeline.write_outputs(result, tmp_path / "out")
    recorded = {span["name"] for span in tracer.spans}
    assert recorded == set(tracing.PIPELINE_HOOKS.values())


def test_write_outputs_writes_the_tensor_through_the_pipeline_name(tmp_path, monkeypatch):
    calls = []
    original = pipeline.write_tensor_binary

    def spy(tensor, path):
        calls.append(path)
        original(tensor, path)

    monkeypatch.setattr(pipeline, "write_tensor_binary", spy)
    paths = pipeline.write_outputs(pipeline.run(make_run_config()), tmp_path / "out")
    assert calls == [paths["tensor"]]
