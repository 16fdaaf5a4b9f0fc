"""Smoke test of the benchmark at tiny sizes; about a minute on two cores.

    python3 perfbench/selftest.py

For every workload it checks that run.py prints every end-to-end metric
(``--trace 0``) and every per-layer metric (``--trace 1``) declared in
BENCHMARK.json, each with its unit; that the workload's correctness gate
ran and passed; and that the traced run's call counts equal the counts
worked out from the configs.  It also feeds each gate records that break
it, and checks that the benchmark fails without a result when the
program's sources are missing.  It is not a pytest test on purpose: it
must not run beside the test suite's timed tests, nor beside a benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)


def check_gates_reject() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from qmoney.harness import ResultRecord

    broken = {
        "clique-attack": {"accepted": 0, "failed_registers": 1, "mean_planted_overlap": 0.5},
        "spectral": {"lambda_max": 1e9},
        "low-eps-forgery": {"accepted": 0, "mean_p1_analysis": 0.4},
        "postselect": {},
    }
    for name, metrics in broken.items():
        configs = workloads.configs(name, 1, tiny=True)
        results = [
            [ResultRecord(c.kind, t, 0, metrics, False) for t in range(c.trials)] for c in configs
        ]
        checks = workloads.gate(name, configs, results)
        assert all(not c.ok for c in checks[1:]) and len(checks) > 1, (name, checks)
        short = workloads.gate(name, configs, [recs[:-1] for recs in results])
        assert not short[0].ok, (name, short)
    print("gates reject broken records: ok")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail without a result."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        code, lines = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("without the program's sources: exits", code, "and prints no result")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, lines = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                                "--trace", str(trace), "--tiny")
            assert code == 0, (workload, trace, lines[-20:])
            check_metrics(json.loads(lines[-1]), declared)
            report_path = HERE / "out" / f"{workload}-seed1-trace{trace}-tiny.json"
            report = json.loads(report_path.read_text(encoding="utf-8"))
            assert len(report["gates"]) > 1 and all(ok for _, ok, _ in report["gates"])
            assert len(report["records_sha"]) == 1
            if trace:
                assert report["expected_calls"] and all(
                    c["ok"] for c in report["expected_calls"].values()
                ), report["expected_calls"]
            print(f"{workload} --trace {trace}: {len(declared)} metrics, "
                  f"{len(report['gates'])} gate checks, ok")
    check_gates_reject()
    check_bare_directory()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
