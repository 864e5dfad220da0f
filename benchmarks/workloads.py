"""Workloads of the benchmark, shared by ``run.py`` and ``child.py``.

A workload fixes every input of one ``typicality`` command except the seed,
which the benchmark receives as an argument.  Chain workloads run
``typicality experiment --spin-chain N K NP``; ``dense_file`` saves a
Haar-random subspace made from the seed and runs ``typicality purity-oracle``
on the saved file.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import os

#: Full-size workloads, each sized so that one command takes a few seconds on
#: a 2-core x86_64 host.
WORKLOADS = {
    # per-trial fixed overhead: generator construction, small gufunc calls;
    # also runs the untimed --workers 2 determinism probe at reduced size
    "chain_small": {"chain": [8, 2, 4], "trials": 15000, "workers_probe_trials": 2000},
    # per-trial arithmetic at d_S = 16: d_S^4 Weyl einsum, 16x16 eigensolve
    "chain_wide": {"chain": [12, 4, 6], "trials": 2500},
    # set-up: dense 512^2 window projector and the 3-operand filter einsum
    "chain_filtered": {"chain": [9, 3, 4], "xi": 1.0, "trials": 1500},
    # dense (non-index) subspace through the JSON codec and the purity oracle
    "dense_file": {"dense": [8, 64, 160], "trials": 5000},
}

#: Tiny versions of the same workloads, for the self-test only.
SMOKE_WORKLOADS = {
    "chain_small": {"chain": [8, 2, 4], "trials": 200, "workers_probe_trials": 100},
    "chain_wide": {"chain": [12, 4, 6], "trials": 40},
    "chain_filtered": {"chain": [8, 3, 4], "xi": 1.0, "trials": 100},
    "dense_file": {"dense": [4, 16, 24], "trials": 200},
}


def subspace_spec(spec: dict, workdir: str) -> dict:
    """The inline subspace spec the command resolves."""
    if "chain" in spec:
        n, k, num_excited = spec["chain"]
        return {"kind": "spin-chain", "n": n, "k": k, "num_excited": num_excited}
    return {"kind": "file", "path": os.path.join(workdir, "subspace.json")}


def filter_spec(spec: dict) -> dict | None:
    if "xi" in spec:
        return {"kind": "typical-window", "half_width": float(spec["xi"])}
    return None


def cli_args(spec: dict, seed: int, workdir: str, *, prefix: str = "run",
             trials: int | None = None, workers: int = 1) -> list[str]:
    """Arguments of the ``typicality`` command a workload runs."""
    trials = spec["trials"] if trials is None else trials
    common = ["--trials", str(trials), "--seed", str(seed), "--workers", str(workers)]
    if "chain" in spec:
        args = ["experiment", "--spin-chain", *(str(x) for x in spec["chain"]), *common,
                "--output", os.path.join(workdir, prefix)]
        if "xi" in spec:
            args += ["--xi", repr(float(spec["xi"]))]
        return args
    return ["purity-oracle", "--subspace-file", os.path.join(workdir, "subspace.json"),
            *common, "--output", os.path.join(workdir, prefix + ".json")]


def artifact_names(spec: dict, prefix: str = "run") -> list[str]:
    """Files the command writes; their bytes must repeat for a fixed seed."""
    if "chain" in spec:
        return [prefix + ".csv", prefix + ".json"]
    return [prefix + ".json"]
