"""One fresh benchmark process, started by run.py; prints one JSON line.

It imports qmoney from the checkout's ``src/``, builds the workload's
configs and notes the set-up time (from ``--t0``, the parent's monotonic
clock just before the spawn, to the first timed call).  With
``--setup-only`` it stops there.  Otherwise it runs the configs through
``qmoney.harness.run_experiment`` back to back, one caller, until the
next run would overrun ``--seconds``, checking every run's records.  With
``--trace 1`` half the time runs untraced and half traced.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Run:
    seconds: float
    cpu_s: float
    records_sha: str | None
    checks: list
    trials: int
    failed_trials: int
    raised: bool
    results: list = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return not self.raised and all(check.ok for check in self.checks)


def _canonical(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def records_sha(results) -> str:
    """sha256 of the records in canonical JSON (sorted keys, no spaces, non-finite -> null)."""
    rows = [
        {
            "experiment": rec.experiment,
            "trial": rec.trial,
            "seed": rec.seed,
            "metrics": {k: _canonical(v) for k, v in rec.metrics.items()},
            "passed": rec.passed,
        }
        for records in results
        for rec in records
    ]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()


def run_once(harness, workloads, workload, configs) -> Run:
    results = []
    raised = False
    t, cpu = time.perf_counter(), time.process_time()
    try:
        for config in configs:
            results.append(harness.run_experiment(config))
    except Exception:
        traceback.print_exc()
        raised = True
    seconds, cpu = time.perf_counter() - t, time.process_time() - cpu
    trials = sum(config.trials for config in configs)
    failed = sum(not rec.passed for records in results for rec in records)
    failed += sum(config.trials for config in configs[len(results):])
    if raised:
        return Run(seconds, cpu, None, [], trials, failed, True)
    return Run(
        seconds,
        cpu,
        records_sha(results),
        workloads.gate(workload, configs, results),
        trials,
        failed,
        False,
        results,
    )


def run_json(run: Run) -> dict:
    return {
        "seconds": run.seconds,
        "cpu_s": run.cpu_s,
        "records_sha": run.records_sha,
        "checks": [list(check) for check in run.checks],
        "trials": run.trials,
        "failed_trials": run.failed_trials,
        "raised": run.raised,
    }


def measure(run, budget: float) -> list[Run]:
    """Run back to back while the next run, as long as the longest so far, fits the budget."""
    runs: list[Run] = []
    start = time.perf_counter()
    while True:
        runs.append(run())
        if not runs[-1].ok:
            break
        elapsed = time.perf_counter() - start
        if elapsed + max(r.seconds for r in runs) > budget:
            break
    return runs


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    for var in THREAD_VARS:  # before qmoney imports numpy
        os.environ[var] = "1"
    if not (SRC / "qmoney" / "__init__.py").is_file():
        print(f"no qmoney sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qmoney
    from qmoney import harness

    if Path(qmoney.__file__).resolve().parent != (SRC / "qmoney").resolve():
        print(f"imported qmoney from {qmoney.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    configs = workloads.configs(args.workload, args.seed, args.tiny)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def run():
        return run_once(harness, workloads, args.workload, configs)

    out = {"setup_s": setup_s, "provenance": provenance()}
    budget = args.seconds / 2 if args.trace else args.seconds
    runs = measure(run, budget)
    if args.trace and runs[-1].ok:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(run, budget)
        finally:
            tracer.uninstall()
        spans = tracer.arrays()
        layers = tracer.layer_metrics(spans, len(traced))
        # Every trial forges all l registers in sample mode, so the mean of the
        # trials' fallback fractions is the fraction over all sample-mode forges.
        fully_mixed = [
            rec.metrics["frac_fully_mixed"]
            for config, records in zip(configs, traced[-1].results)
            if config.kind == "low-eps-attack"
            for rec in records
        ]
        layers["phase.generate_rho_with_record.fully_mixed_frac"] = (
            statistics.fmean(fully_mixed) if fully_mixed else 0.0
        )
        layers["trace_overhead_s"] = statistics.median(
            r.seconds for r in traced
        ) - statistics.median(r.seconds for r in runs)
        layers["harness.run_experiment.fail_frac"] = sum(
            r.failed_trials for r in traced
        ) / sum(r.trials for r in traced)
        out["layers"] = layers
        out["traced_runs"] = [run_json(r) for r in traced]
        out["expected_calls"] = workloads.expected_calls(args.workload, configs)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans, spans)
    out["runs"] = [run_json(r) for r in runs]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
