"""One workload in one fresh process (started by run.py).

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --role setup|measure

Set-up is timed from before `import deltalab` to the end of the warm-up
call.  The role `setup` stops there; `measure` then runs passes over the
workload's fixed job list while the next pass still fits in `--seconds`
(always at least one), checks the outputs and prints one JSON line.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _setup(name, seed):
    import deltalab

    src = (ROOT / "src").resolve()
    if src not in Path(deltalab.__file__).resolve().parents:
        raise SystemExit(f"deltalab imported from {deltalab.__file__}, not from {src}")
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.build(seed)
    wl.warmup()
    return wl


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    wl = _setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracer import PER_LAYER, Tracer, dump_spans

        tracer = Tracer()
        tracer.install()
    passes, pass_times, job_times, layers, spans = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        outputs = []
        t_pass = time.perf_counter()
        for j, job in enumerate(wl.jobs()):
            if tracer is not None:
                tracer.job = (len(passes), j)
            t = time.perf_counter()
            attempted += 1
            try:
                outputs.append(job())
            except Exception as exc:  # a failed job is counted, the run goes on
                failed += 1
                outputs.append(None)
                print(f"job {j} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            job_times.append(time.perf_counter() - t)
        pass_times.append(time.perf_counter() - t_pass)
        passes.append(outputs)
        if tracer is not None:
            layers.append(tracer.layer_metrics())
            spans.append(list(tracer.spans))
            tracer.reset()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_times) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = []
    if any(p != passes[0] for p in passes[1:]):
        errors.append("a later pass produced other outputs than the first")
    if failed:
        errors.append(f"{failed} jobs raised")
    else:
        errors += wl.check(passes[0])
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "setup_s": setup_s, "passes": len(passes), "jobs_per_pass": len(passes[0]),
              "pass_times_s": pass_times, "job_times_s": job_times,
              "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}}
    if tracer is None:
        result["metrics"] = {
            "wall_s": statistics.median(pass_times),
            "job_p50_s": statistics.median(job_times),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            # counts repeat exactly from pass to pass; times take the median
            counted = PER_LAYER[name][0] == "count"
            metrics[name] = values[0] if counted else statistics.median(values)
        metrics["trace.wall_s"] = statistics.median(pass_times)
        result["metrics"] = metrics
        if args.trace_file:
            dump_spans(args.trace_file, spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
