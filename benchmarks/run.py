"""Benchmark of the ``typicality`` command line: end-to-end and per-layer metrics.

Run from the root of a checkout (the program is imported from its ``src/``):

    python3 benchmarks/run.py --workload chain_small --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the command
and, separately, its set-up calls each run in a fresh child, in sets that
repeat until ``--seconds`` have passed; medians over the sets are reported.
``--trace 1`` runs the command once more with a span around every call into
a layer and reports the per-layer metrics.  Every run checks the command's
outputs.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the whole record,
per set, is written to ``.bench_runs/<workload>-seed<seed>-trace<t>/``.
README.md explains the workloads and how to read the numbers.
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
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import SMOKE_WORKLOADS, WORKLOADS, artifact_names, cli_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.startup_s": "s",
    "subspace.build_s": "s",
    "subspace.canonical_s": "s",
    "subspace.canonical_peak_mb": "MB",
    "subspace.save_s": "s",
    "subspace.load_s": "s",
    "subspace.file_bytes": "bytes",
    "spin_chain.projector_s": "s",
    "spin_chain.projector_peak_mb": "MB",
    "filtering.apply_s": "s",
    "filtering.apply_peak_mb": "MB",
    "sampling.stream_us": "us",
    "sampling.draw_us": "us",
    "sampling.reduce_us": "us",
    "sampling.trials": "count",
    "linalg.trace_norm_us": "us",
    "linalg.purity_us": "us",
    "weyl.basis_ms": "ms",
    "weyl.coefficients_us": "us",
    "experiments.trial_loop_us": "us",
    "experiments.oracle_s": "s",
    "experiments.bounds_ms": "ms",
    "experiments.stats_ms": "ms",
    "experiments.csv_s": "s",
    "experiments.csv_bytes": "bytes",
    "experiments.json_ms": "ms",
    "host.probe_s": "s",
    "trace.overhead_frac": "fraction",
}

#: Sets measured at least, even when they overrun ``--seconds``.
MIN_SETS = 3

#: A child still running after this long is killed and its run counts as failed.
CHILD_TIMEOUT_S = 150.0

#: Every child runs its BLAS on one thread, so no child exceeds ``nproc``.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Largest |sampled - exact| mean purity, in standard errors, a run may show.
PURITY_Z_MAX = 3.0


class BenchError(Exception):
    """The benchmark cannot produce a result (not a failed output check)."""


@dataclass
class Child:
    start: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    output: str


def run_child(argv: list[str], env: dict, log_path: Path) -> Child:
    """Run ``argv`` to completion and take its times and peak RSS from ``wait4``."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start=start, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode,
                 output=log_path.read_text(encoding="utf-8", errors="replace"))


def host_probe() -> float:
    """Seconds for a fixed numpy kernel; tracks host speed from set to set."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    h = a + a.conj().T
    start = time.perf_counter()
    for _ in range(200):
        np.linalg.eigvalsh(h)
        h @ h
    return time.perf_counter() - start


def host_facts(env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


class Bench:
    """One workload at one seed: its children, output checks and raw records."""

    def __init__(self, workload: str, seed: int, smoke: bool, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.spec = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload]
        tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
        self.workdir = ROOT / ".bench_runs" / tag
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.exact_purity: float | None = None

    # -- children -------------------------------------------------------------

    def run_script(self, command: str) -> Child:
        """Run one subcommand of ``child.py`` for this workload and seed."""
        argv = [sys.executable, str(CHILD), command, json.dumps(self.spec),
                str(self.seed), str(self.workdir)]
        return run_child(argv, self.env, self.workdir / f"{command}.log")

    def prepare(self) -> None:
        """Untimed inputs; also proves the program is imported from this checkout."""
        child = self.run_script("prepare")
        if child.exit_code != 0:
            raise BenchError(f"preparing {self.workload} failed:\n{child.output}")
        with open(self.workdir / "prepare.json", encoding="utf-8") as fh:
            prepared = json.load(fh)
        if not Path(prepared["module"]).is_relative_to(ROOT / "src"):
            raise BenchError(f"typicality was imported from {prepared['module']}, "
                             f"not from {ROOT / 'src'}")
        self.exact_purity = prepared.get("exact_average_purity")

    def setup(self) -> float:
        """Seconds from starting a fresh child until its first trial could begin."""
        child = self.run_script("setup")
        if child.exit_code != 0:
            raise BenchError(f"set-up child failed:\n{child.output}")
        return float(child.output.strip().splitlines()[-1]) - child.start

    def startup(self) -> float:
        argv = [sys.executable, "-c", "import typicality"]
        child = run_child(argv, self.env, self.workdir / "startup.log")
        if child.exit_code != 0:
            raise BenchError(f"importing typicality failed:\n{child.output}")
        return child.wall_s

    def command(self, prefix: str = "run", **kwargs) -> Child:
        """One run of the workload's command in a fresh child, untraced."""
        if "dense" in self.spec:
            # one child saves the subspace, then runs purity-oracle on it
            return self.run_script("dense")
        args = cli_args(self.spec, self.seed, str(self.workdir), prefix=prefix, **kwargs)
        argv = [sys.executable, "-m", "typicality", *args]
        return run_child(argv, self.env, self.workdir / f"{prefix}.log")

    # -- output checks --------------------------------------------------------

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"check failed: {reason}", file=sys.stderr)

    def _artifact_hash(self, prefix: str) -> dict[str, str] | None:
        """sha256 per artifact suffix, or None if one is missing."""
        digests = {}
        for name in artifact_names(self.spec, prefix):
            path = self.workdir / name
            if not path.is_file():
                return None
            digests[path.suffix] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    def check_command(self, exit_code: int, label: str, prefix: str = "run") -> bool:
        """Exit code, byte-identical artifacts for the seed, and the purity oracle.

        Counts one attempted run, and at most one failure for it.
        """
        self.attempted += 1
        if exit_code != 0:
            self.fail(f"{label}: exit code {exit_code}")
            return False
        digests = self._artifact_hash(prefix)
        if digests is None:
            self.fail(f"{label}: artifacts missing")
            return False
        if not self.hashes:
            self.hashes = digests
        elif digests != self.hashes:
            self.fail(f"{label}: artifact bytes differ from the first run with seed {self.seed}")
            return False
        with open(self.workdir / f"{prefix}.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        if "dense" in self.spec:
            z = summary["z_score"]
        else:
            stats = summary["stats"]["purity"]
            z = (stats["mean"] - self.exact_purity) / stats["standard_error"]
        if abs(z) > PURITY_Z_MAX:
            self.fail(f"{label}: mean purity {z:+.2f} standard errors from the exact oracle")
            return False
        return True

    def workers_probe(self) -> dict:
        """Untimed: at reduced size, 2 workers must repeat 1 worker's bytes."""
        trials = self.spec.get("workers_probe_trials")
        if trials is None:
            return {}
        if len(os.sched_getaffinity(0)) < 2:
            return {"workers_probe": "skipped: fewer than 2 cpus"}
        self.attempted += 1
        digests = []
        for workers in (1, 2):
            prefix = f"workers{workers}"
            child = self.command(prefix=prefix, trials=trials, workers=workers)
            digests.append(self._artifact_hash(prefix) if child.exit_code == 0 else None)
        ok = digests[0] is not None and digests[0] == digests[1]
        if not ok:
            self.fail("--workers 2 output differs from --workers 1")
        return {"workers_probe": {"trials": trials, "identical": ok}}


def _median(sets: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in sets)


def _run_sets(deadline: float, one_set) -> list[dict]:
    """Repeat ``one_set`` until the next set would end after ``deadline``."""
    sets = []
    start = time.monotonic()
    while True:
        set_start = time.monotonic()
        record = one_set(len(sets))
        record["set_s"] = time.monotonic() - set_start
        record["loadavg_1m"] = os.getloadavg()[0]
        sets.append(record)
        now = time.monotonic()
        if len(sets) >= MIN_SETS and now + (now - start) / len(sets) > deadline:
            return sets


def measure(bench: Bench, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off: probe, set-up child, command child per set."""

    def one_set(index: int) -> dict:
        probe = host_probe()
        setup_s = bench.setup()
        child = bench.command()
        bench.check_command(child.exit_code, f"set {index}")
        return {"host_probe_s": probe, "setup_s": setup_s, "wall_s": child.wall_s,
                "cpu_s": child.cpu_s, "peak_rss_mb": child.peak_rss_mb}

    sets = _run_sets(deadline, one_set)
    metrics = {name: _median(sets, name) for name in END_TO_END}
    return metrics, {"sets": sets}


def _self_times(spans: list[list]) -> tuple[dict, dict]:
    """Self time (duration minus child spans) and peak bytes, summed per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    peak: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, peak_bytes) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        if peak_bytes is not None:
            peak[name] = max(peak[name], peak_bytes)
    return self_s, peak


def trace(bench: Bench, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics: one traced command, then untraced sets for the baselines."""
    traced = bench.run_script("trace")
    spans_path = bench.workdir / "spans.json"
    if traced.exit_code != 0 or not spans_path.is_file():
        raise BenchError(f"traced run failed:\n{traced.output}")
    with open(spans_path, encoding="utf-8") as fh:
        out = json.load(fh)
    if bench.check_command(out["exit_code"], "traced run") and out["replay_mismatches"]:
        bench.fail(f"traced run: {out['replay_mismatches']} replayed trials disagree "
                   "with the command's records")

    def one_set(index: int) -> dict:
        probe = host_probe()
        startup_s = bench.startup()
        child = bench.command()
        bench.check_command(child.exit_code, f"set {index}")
        return {"host_probe_s": probe, "startup_s": startup_s, "wall_s": child.wall_s}

    sets = _run_sets(deadline, one_set)
    # start to the command's end, plus interpreter exit as in an untraced run
    replay_end = float(traced.output.strip().splitlines()[-1])
    traced_command_s = traced.wall_s - (replay_end - out["command_end"])
    self_s, peak = _self_times(out["spans"])
    trials = bench.spec["trials"]
    chain = "chain" in bench.spec

    def per_trial_us(name: str) -> float:
        return self_s[name] / trials * 1e6

    def size(name: str) -> int:
        path = bench.workdir / name
        return path.stat().st_size if path.is_file() else 0

    mib = 1024.0 * 1024.0
    metrics = {
        "cli.startup_s": _median(sets, "startup_s"),
        "subspace.build_s": self_s["subspace.build"],
        "subspace.canonical_s": self_s["subspace.canonical"],
        "subspace.canonical_peak_mb": peak["subspace.canonical"] / mib,
        "subspace.save_s": self_s["subspace.save"],
        "subspace.load_s": self_s["subspace.load"],
        "subspace.file_bytes": 0 if chain else size("subspace.json"),
        "spin_chain.projector_s": self_s["spin_chain.projector"],
        "spin_chain.projector_peak_mb": peak["spin_chain.projector"] / mib,
        "filtering.apply_s": self_s["filtering.apply"],
        "filtering.apply_peak_mb": peak["filtering.apply"] / mib,
        "sampling.stream_us": per_trial_us("sampling.stream"),
        "sampling.draw_us": per_trial_us("sampling.draw"),
        "sampling.reduce_us": per_trial_us("sampling.reduce"),
        "sampling.trials": trials,
        "linalg.trace_norm_us": per_trial_us("linalg.trace_norm"),
        "linalg.purity_us": per_trial_us("linalg.purity"),
        "weyl.basis_ms": self_s["weyl.basis"] * 1e3,
        "weyl.coefficients_us": per_trial_us("weyl.coefficients"),
        "experiments.trial_loop_us": per_trial_us("experiments.run"),
        "experiments.oracle_s": self_s["experiments.oracle"],
        "experiments.bounds_ms": self_s["experiments.bounds"] * 1e3,
        "experiments.stats_ms": self_s["experiments.stats"] * 1e3,
        "experiments.csv_s": self_s["experiments.csv"],
        "experiments.csv_bytes": size("run.csv") if chain else 0,
        "experiments.json_ms": self_s["experiments.json"] * 1e3,
        "host.probe_s": _median(sets, "host_probe_s"),
        "trace.overhead_frac": traced_command_s / _median(sets, "wall_s") - 1.0,
    }
    layer_self_s: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        layer_self_s[name.split(".")[0]] += value
    record = {"sets": sets, "traced_run_s": traced.wall_s, "traced_command_s": traced_command_s,
              "self_time_s": dict(self_s), "layer_self_time_s": dict(layer_self_s),
              "peak_bytes": dict(peak)}
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "typicality" / "__init__.py").is_file():
        print(f"error: no typicality sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    # the probe runs numpy in this process; pin its BLAS before the first import
    os.environ.update({var: "1" for var in THREAD_VARS})

    deadline = time.monotonic() + args.seconds
    bench = Bench(args.workload, args.seed, args.smoke, bool(args.trace))
    try:
        bench.prepare()
        extra = bench.workers_probe()
        if args.trace:
            metrics, record = trace(bench, deadline)
            units = PER_LAYER
        else:
            metrics, record = measure(bench, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(bench.failures)
    record.update(extra)
    record.update({
        "workload": args.workload, "spec": bench.spec, "seed": args.seed,
        "trace": args.trace, "host": host_facts(bench.env), "artifact_sha256": bench.hashes,
        "attempted": bench.attempted, "failures": bench.failures, "metrics": metrics,
    })
    with open(bench.workdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {failed}/{bench.attempted} "
          f"({len(record['sets'])} sets, record in {bench.workdir.relative_to(ROOT)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
