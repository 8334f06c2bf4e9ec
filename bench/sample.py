"""One benchmark sample, in a fresh process: what `auramimo run` and then
`auramimo metrics` cost a command-line user.

    python3 bench/sample.py --config CFG --out DIR --result FILE
        [--setup-only] [--trace --run-id ID]

Times importing auramimo plus load_config (set-up), pipeline.run,
write_outputs into an empty directory, and a reread of the written
tensor (read_tensor_binary + correlation_metrics); then checks
the outputs and writes one JSON record to FILE. With --trace the
pipeline's stages are wrapped in spans (see tracing.py). The exit code
is 1 when the run raised or a check failed.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob
    import os

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _measure(config, args) -> dict:
    from auramimo import pipeline
    from auramimo.metrics import correlation_metrics
    from auramimo.tensorio import read_tensor_binary

    import checks
    import counters
    import tracing

    tracer = tracing.Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        tracer.install(pipeline)

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    out = Path(args.out)
    t = time.perf_counter()
    with span("pipeline.run"):
        result = pipeline.run(config)
    run_s = time.perf_counter() - t

    written = out / "outputs"
    t = time.perf_counter()
    with span("pipeline.write_outputs"):
        pipeline.write_outputs(result, written)
    write_s = time.perf_counter() - t

    counts = counters.count(result, written)
    n_coefficients = int(result.tensor.coefficients.size)
    del result

    t = time.perf_counter()
    with span("tensorio.read"):
        tensor = read_tensor_binary(written / "channel.bin")
    with span("reread.correlation"):
        report = correlation_metrics(tensor)
    reread_s = time.perf_counter() - t

    layout = config.layout
    errors = checks.reread_matches_metrics(written, tensor, report, layout.user_ids)
    errors += checks.share_counts_conserved(
        written, layout.user_ids, len(layout.segments), config.total_clusters_per_user
    )
    return {
        "run_s": run_s,
        "write_s": write_s,
        "reread_s": reread_s,
        "coefficients": n_coefficients,
        "digests": checks.digests(written),
        "counts": counts,
        "spans": tracer.as_dict() if tracer is not None else None,
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    t = time.perf_counter()
    import auramimo

    config = auramimo.load_config(args.config)
    record = {"setup_s": time.perf_counter() - t, "auramimo": auramimo.__file__, "errors": []}

    if not args.setup_only:
        try:
            record.update(_measure(config, args))
        except Exception:
            record["errors"] = [traceback.format_exc()]
        record["blas_threads"] = _blas_threads()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(record))
    return 1 if record["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
