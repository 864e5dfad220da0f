"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 benchmarks/selftest.py

Runs every workload of BENCHMARK.json with ``--smoke``, untraced and traced,
and asserts that each result line carries every declared metric with its
unit, that the output checks passed, and that each traced run reads nonzero
exactly on the layers its workload's command calls.  Finally it runs the
benchmark from a copy that holds only BENCHMARK.json and the benchmark's own
files, which must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_CHAIN = {
    "cli.startup_s", "subspace.build_s", "subspace.canonical_s", "subspace.canonical_peak_mb",
    "sampling.stream_us", "sampling.draw_us", "sampling.reduce_us", "sampling.trials",
    "linalg.trace_norm_us", "linalg.purity_us", "weyl.basis_ms", "weyl.coefficients_us",
    "experiments.trial_loop_us", "experiments.bounds_ms", "experiments.stats_ms",
    "experiments.csv_s", "experiments.csv_bytes", "experiments.json_ms", "host.probe_s",
}
_FILTER = {"spin_chain.projector_s", "spin_chain.projector_peak_mb",
           "filtering.apply_s", "filtering.apply_peak_mb"}
_DENSE = {
    "cli.startup_s", "subspace.build_s", "subspace.save_s", "subspace.load_s",
    "subspace.file_bytes", "sampling.stream_us", "sampling.draw_us", "sampling.reduce_us",
    "sampling.trials", "linalg.trace_norm_us", "linalg.purity_us",
    "experiments.trial_loop_us", "experiments.oracle_s", "host.probe_s",
}

#: Per-layer metrics that must read nonzero on each workload; all others read 0.
COVERAGE = {
    "chain_small": _CHAIN,
    "chain_wide": _CHAIN,
    "chain_filtered": _CHAIN | _FILTER,
    "dense_file": _DENSE,
}

#: Signed context metrics, exempt from the nonzero/zero rule.
SIGNED = {"trace.overhead_frac"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(workload: str, trace: int, declared: list[dict]) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], sorted(metrics)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], (m, metrics[m["name"]])
    if trace:
        for name, entry in metrics.items():
            if name in SIGNED:
                continue
            covered = name in COVERAGE[workload]
            assert (entry["value"] > 0) == covered, (workload, name, entry["value"])
    else:
        assert all(entry["value"] > 0 for entry in metrics.values()), metrics


def check_bare_copy() -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".bench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        for path in json.load(fh)["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "chain_small", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    assert sorted(workloads) == sorted(COVERAGE), workloads
    for workload in workloads:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            check_workload(workload, trace, declared)
            print(f"ok {workload} trace={trace}")
    check_bare_copy()
    print("ok bare copy fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
