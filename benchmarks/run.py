"""hodgebench benchmark runner: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload spectra-bounds --seed 1 --seconds 60 --trace 0

The runner writes the workload's seeded inputs, then starts fresh
single-threaded worker processes one at a time, each running the whole op
list once, until ``--seconds`` have passed.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full record of the run (every pass, accuracy values, machine and
environment) is written to ``.bench_runs/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# pinned for this process and every worker: one BLAS thread, so passes do
# not compete for the cores and timings do not depend on the box's load
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

DEADLINE_S = 170.0  # no pass starts that could end after this

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def per_layer_metrics() -> dict:
    """Name -> unit of every per-layer metric, the same for all workloads."""
    import tracer
    import workloads

    out = {}
    for workload in workloads.WORKLOADS:
        for op_id in workloads.OP_IDS[workload]:
            out[f"op.{op_id}.wall_s"] = "s"
    for layer in tracer.SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = "s"
    for layer in tracer.CALL_COUNTS:
        out[f"{layer}.calls"] = "count"
    for name in tracer.COUNTERS:
        out[name] = "count"
    out.update({
        "spectrum.lambda1_rel_err_max": "ratio",
        "reilly.rel_residual_max": "ratio",
        "error_rate": "ratio",
        "trace.overhead_s": "s",
        "trace.uncovered_s": "s",
    })
    return out


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hodgebench").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# worker processes


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env.pop("HODGEBENCH_OUT", None)
    return env


def run_worker(run_dir: Path, index: int, mode: str, workload: str, inputs: dict, time_left: float) -> dict:
    """Start one worker, wait for it and return its result record."""
    work = run_dir / "work" / f"pass{index}"
    work.mkdir(parents=True)
    spec = {
        "workload": workload,
        "inputs": inputs,
        "mode": mode,
        "out": str(work / "out"),
        "result": str(work / "result.json"),
        "spans": str(run_dir / "spans.json"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    stderr_path = work / "stderr.txt"
    with open(stderr_path, "w") as stderr:
        # run() kills the worker and waits for it when the timeout expires
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            cwd=ROOT, env=_worker_env(), stdout=subprocess.DEVNULL, stderr=stderr,
            timeout=max(time_left, 1.0), check=False,
        )
    if proc.returncode != 0:
        tail = stderr_path.read_text()[-2000:]
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}:\n{tail}")
    result = json.loads((work / "result.json").read_text())
    result["mode"] = mode
    shutil.rmtree(work)  # reports are checked inside the worker
    return result


def measure(run_dir, workload, inputs, seconds, trace) -> list:
    """Run passes for about ``seconds``; return every worker record."""
    start = time.perf_counter()
    records = []
    counts = {"plain": 0, "traced": 0}
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        complete = counts["plain"] > 0 and (not trace or counts["traced"] > 0)
        # start a pass only if at least half of it should fit in the run's time
        if complete and (elapsed + last / 2 > seconds or elapsed + last > DEADLINE_S):
            break
        mode = "traced" if trace and counts["traced"] < counts["plain"] else "plain"
        records.append(run_worker(run_dir, len(records), mode, workload, inputs, DEADLINE_S - elapsed))
        records[-1]["started_s"] = elapsed
        last = time.perf_counter() - start - elapsed
        counts[mode] += 1
    return records


# ---------------------------------------------------------------------------
# aggregation


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def end_to_end_metrics(records, failed, attempted) -> dict:
    plain = [r for r in records if r["mode"] == "plain"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer_values(records, failed, attempted, names) -> dict:
    plain = [r for r in records if r["mode"] == "plain"]
    traced = [r for r in records if r["mode"] == "traced"]
    out = dict.fromkeys(names, 0.0)  # ops and layers a workload never runs read 0
    for op_id in {op["id"] for op in plain[0]["ops"]}:
        out[f"op.{op_id}.wall_s"] = statistics.median(
            op["wall_s"] for r in plain for op in r["ops"] if op["id"] == op_id
        )
    for name in names:
        if name in traced[0]["trace"]:
            out[name] = statistics.median(r["trace"][name] for r in traced)
    accuracy = [op.get("accuracy", {}) for r in records for op in r["ops"]]
    out["spectrum.lambda1_rel_err_max"] = max(
        [a["lambda1_rel_err"] for a in accuracy if "lambda1_rel_err" in a], default=0.0
    )
    out["reilly.rel_residual_max"] = max(
        [v for a in accuracy for v in a.get("rel_residual", [])], default=0.0
    )
    out["error_rate"] = failed / attempted
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    out["trace.uncovered_s"] = statistics.median(r["wall_s"] - r["trace"]["root_s"] for r in traced)
    return out


def summary_lines(workload, records, metrics, units, env):
    plain = [r for r in records if r["mode"] == "plain"]
    yield "environment " + json.dumps(env)
    yield f"workload {workload}: {len(plain)} untraced passes, {len(records) - len(plain)} traced"
    for field in ("wall_s", "setup_s"):
        values = [r[field] for r in (plain if field == "wall_s" else records)]
        q1, q3 = quartiles(values)
        yield f"  {field}: median {statistics.median(values):.4f} s, quartiles {q1:.4f}..{q3:.4f} s, n={len(values)}"
    for name, value in metrics.items():
        yield f"  {name} = {value:.6g} {units[name]}"
    for r in records:
        for op in r["ops"]:
            status = "ok" if op["ok"] else "FAILED"
            yield f"  [{r['mode']}] {op['id']}: {op['wall_s']:.4f} s {status} {json.dumps(op.get('accuracy', {}))}"
            if not op["ok"]:
                yield "    " + op["error"].strip().replace("\n", "\n    ")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hodgebench" / "__init__.py").is_file():
        print(f"no hodgebench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed, run_dir / "inputs")
    try:
        records = measure(run_dir, args.workload, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir / "work", ignore_errors=True)

    ops = [op for r in records for op in r["ops"]]
    attempted, failed = len(ops), sum(not op["ok"] for op in ops)
    if args.trace:
        units = per_layer_metrics()
        metrics = per_layer_values(records, failed, attempted, units)
    else:
        metrics, units = end_to_end_metrics(records, failed, attempted), END_TO_END
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "records": records,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    for line in summary_lines(args.workload, records, metrics, units, env):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
