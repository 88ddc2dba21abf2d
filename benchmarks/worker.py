"""One pass of a workload in a fresh Python process.

Usage: ``python3 benchmarks/worker.py SPEC.json`` (``run.py`` writes the
spec and starts this process; see README.md).

The spec names the workload, its seeded inputs, an output directory for the
CLI reports, a mode (``plain``: untraced; ``traced``: with the tracer
installed) and where to write the result.  Only the standard library is
imported before the timed import of ``hodgebench``, so ``setup_s`` includes
numpy and scipy, as every CLI call pays them.
"""

import json
import resource
import sys
import time
import traceback


def run_ops(ops):
    records = []
    for op in ops:
        record = {"id": op.id, "ok": False}
        start = time.perf_counter()
        try:
            value = op.run()
        except Exception:  # an op that raises counts as failed; the pass goes on
            record["wall_s"] = time.perf_counter() - start
            record["error"] = traceback.format_exc(limit=-3)
            records.append(record)
            continue
        record["wall_s"] = time.perf_counter() - start
        try:
            record["accuracy"] = op.check(value)
            record["ok"] = True
        except Exception:  # CheckFailure, or output missing or malformed
            record["error"] = traceback.format_exc(limit=-2)
        records.append(record)
    return records


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    import hodgebench  # noqa: F401
    import hodgebench.cli  # noqa: F401

    result = {"setup_s": time.perf_counter() - start}
    import workloads

    tracer = None
    if spec["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        result["missing"] = tracer.install()
    ops = workloads.build_ops(spec["workload"], spec["inputs"], spec["out"])
    result["ops"] = run_ops(ops)
    result["wall_s"] = sum(r["wall_s"] for r in result["ops"])
    if tracer is not None:
        result["trace"] = tracer.summary()
        with open(spec["spans"], "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent"], "spans": tracer.spans}, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
