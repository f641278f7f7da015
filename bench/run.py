"""deltalab benchmark: one workload, measured in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/deltalab`.  Set-up is
sampled in three fresh processes (two that stop after set-up, and the one
that measures) and reported as their median.  Every process gets a pinned
environment: PYTHONHASHSEED=0, one BLAS/OpenMP thread, DELTA_LAB_THREADS
removed and `src` on PYTHONPATH.  The last line of standard output is the
result; the machine description and the raw samples go to the line before
it and to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
from tracer import PER_LAYER  # noqa: E402  (bench/ is the script's directory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("l1_oracle", "muntz_witness", "sum_construct", "cli_requests")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S, MEASURE_TIMEOUT_S = 30, 110  # a run ends within 180 s


def pinned_env():
    env = {k: v for k, v in os.environ.items() if k != "DELTA_LAB_THREADS"}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def machine(versions):
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), **versions}


def child(args, role, trace_file=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S if role == "setup" else MEASURE_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "deltalab" / "__init__.py").is_file():
        sys.exit(f"no deltalab sources under {ROOT / 'src'}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # the traced run reports no set-up time, so it samples set-up only once
    setups = [child(args, "setup")["setup_s"]
              for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    res = child(args, "measure", OUT / f"{stem}.spans.json" if args.trace else None)
    setups.append(res["setup_s"])
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    report = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(res["versions"]), "setup_samples_s": setups,
              "passes": res["passes"], "jobs_per_pass": res["jobs_per_pass"],
              "pass_times_s": res["pass_times_s"], "job_times_s": res["job_times_s"], **report}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: detail[k] for k in ("machine", "passes", "jobs_per_pass",
                                             "setup_samples_s")}))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
