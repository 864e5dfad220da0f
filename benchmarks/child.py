"""Child processes of the benchmark, each started in a fresh interpreter by
``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src/``:

    python3 child.py prepare SPEC SEED WORKDIR   untimed inputs and oracle
    python3 child.py setup   SPEC SEED WORKDIR   the command's set-up calls only
    python3 child.py dense   SPEC SEED WORKDIR   dense_file's timed command
    python3 child.py trace   SPEC SEED WORKDIR   traced command, then a traced replay

SPEC is a workload entry of ``workloads.py`` as JSON.  ``setup`` prints
``time.monotonic()`` when the set-up ends, so the parent can time it from the
moment it started the child; ``trace`` prints it after its replay and dump,
which the parent leaves out of the traced command's time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import sys
import time
import tracemalloc

from workloads import cli_args, filter_spec, subspace_spec


def _dense_shape(spec: dict):
    from typicality.linalg import BipartiteShape

    d_s, d_e, _ = spec["dense"]
    return BipartiteShape(d_s, d_e)


def _dense_subspace(spec: dict, workdir: str):
    """The seed's Haar-random subspace, as written by ``prepare``."""
    import numpy as np
    from typicality.subspace import ConstraintSubspace

    basis = np.load(os.path.join(workdir, "basis.npy"))
    return ConstraintSubspace(_dense_shape(spec), dense_basis=basis)


def prepare(spec: dict, seed: int, workdir: str) -> None:
    """Untimed: make the workload's inputs and the exact mean purity."""
    import numpy as np
    import typicality
    from typicality.experiments import exact_average_purity, resolve_subspace
    from typicality.subspace import random_subspace

    out = {"module": os.path.abspath(typicality.__file__)}
    if "dense" in spec:
        sub = random_subspace(_dense_shape(spec), spec["dense"][2], np.random.default_rng(seed))
        np.save(os.path.join(workdir, "basis.npy"), sub.basis)
    else:
        sub = resolve_subspace(subspace_spec(spec, workdir))
        out["exact_average_purity"] = exact_average_purity(sub)
    with open(os.path.join(workdir, "prepare.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def setup(spec: dict, seed: int, workdir: str) -> None:
    """The set-up calls the command makes before its first trial, and nothing else."""
    import typicality
    from typicality import experiments

    if "dense" in spec:
        path = os.path.join(workdir, "setup_subspace.json")
        _dense_subspace(spec, workdir).save(path)
        sub = typicality.ConstraintSubspace.load(path)
        experiments.exact_average_purity(sub)
    else:
        sspec = subspace_spec(spec, workdir)
        sub = experiments.resolve_subspace(sspec)
        typicality.canonical_ensemble(sub)
        filt = experiments.resolve_filter(filter_spec(spec), sspec)
        if filt is not None:
            typicality.apply_filter(sub, filt)
        # the command tracks Weyl coefficients for every d_S <= 32
        typicality.weyl_basis(sub.shape.dim_system)
    print(repr(time.monotonic()))


def run_command(spec: dict, seed: int, workdir: str) -> int:
    """The workload's command, in-process; dense_file saves its subspace first."""
    from typicality.cli import main

    if "dense" in spec:
        _dense_subspace(spec, workdir).save(os.path.join(workdir, "subspace.json"))
    return main(cli_args(spec, seed, workdir))


# -- traced run ----------------------------------------------------------------


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, peak bytes]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])

    def end(self, peak: int | None = None) -> None:
        span = self.spans[self._open.pop()]
        span[2] = time.perf_counter()
        span[4] = peak

    def wrap(self, name: str, fn, peak: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if peak:
                tracemalloc.start()
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if peak:
                    self.end(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                else:
                    self.end()

        return traced


@contextlib.contextmanager
def _patched(tracer: Tracer, targets):
    """Replace each (owner, attribute) by a span-recording wrapper, then restore.

    Callers look these names up at call time, so the command runs unchanged
    and every call into a layer becomes a span.
    """
    saved = []
    try:
        for owner, attr, name, peak in targets:
            raw = owner.__dict__[attr]
            wrapped = tracer.wrap(name, getattr(owner, attr), peak)
            if isinstance(raw, classmethod):
                wrapped = staticmethod(wrapped)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _command_targets():
    from typicality import experiments as ex
    from typicality import subspace as sp

    return [
        (ex, "build_subspace", "subspace.build", False),
        (sp, "from_basis_vectors", "subspace.build", False),
        (sp.ConstraintSubspace, "save", "subspace.save", False),
        (sp.ConstraintSubspace, "load", "subspace.load", False),
        (ex, "canonical_ensemble", "subspace.canonical", True),
        (ex, "typical_projector", "spin_chain.projector", True),
        (ex, "apply_filter", "filtering.apply", True),
        (ex, "weyl_basis", "weyl.basis", False),
        (ex, "run_distance_experiment", "experiments.run", False),
        (ex, "mc_average_purity", "experiments.run", False),
        (ex, "exact_average_purity", "experiments.oracle", False),
        (ex, "bound_confrontation_report", "experiments.bounds", False),
        (ex, "distance_tail_bound", "experiments.bounds", False),
        (ex.SummaryStats, "from_samples", "experiments.stats", False),
        (ex, "write_trials_csv", "experiments.csv", False),
        (ex, "write_summary_json", "experiments.json", False),
    ]


def _replay(tracer: Tracer, spec: dict, seed: int, workdir: str) -> list[tuple]:
    """Re-draw every trial of the command through the public per-trial calls.

    Returns (trace_distance, purity, max_coeff_dev or None) per trial, which
    must agree with the command's own records.
    """
    import numpy as np
    from typicality import experiments
    from typicality.linalg import purity, trace_norm
    from typicality.sampling import SampleStream, reduced_state_from_coords, sample_coords
    from typicality.subspace import ConstraintSubspace, canonical_ensemble
    from typicality.weyl import coefficients, weyl_basis

    if "dense" in spec:
        # mc_average_purity measures against a zero mean and tracks no Weyl family
        sub = ConstraintSubspace.load(os.path.join(workdir, "subspace.json"))
        mean_state = np.zeros((sub.shape.dim_system,) * 2, dtype=complex)
        ops = None
    else:
        sub = experiments.resolve_subspace(subspace_spec(spec, workdir))
        mean_state = canonical_ensemble(sub).system_state
        ops = weyl_basis(sub.shape.dim_system)
    d_r = sub.dim_subspace
    begin, end = tracer.begin, tracer.end
    records = []
    stream_target = [(SampleStream, "rng", "sampling.stream", False)]
    with _patched(tracer, stream_target):
        for i in range(spec["trials"]):
            begin("sampling.draw")
            coords = sample_coords(d_r, SampleStream(seed, i))
            end()
            begin("sampling.reduce")
            rho = reduced_state_from_coords(sub, coords)
            end()
            diff = rho - mean_state
            begin("linalg.trace_norm")
            distance = trace_norm(diff)
            end()
            begin("linalg.purity")
            pur = purity(rho)
            end()
            dev = None
            if ops is not None:
                begin("weyl.coefficients")
                dev = float(np.max(np.abs(coefficients(ops, diff))))
                end()
            records.append((distance, pur, dev))
    return records


#: Replayed values may differ from the command's records by round-off only.
REPLAY_ATOL = 1e-9


def _replay_mismatches(spec: dict, workdir: str, records: list[tuple]) -> int:
    """Count replayed trials that disagree with the command's artifacts."""
    if "dense" in spec:
        with open(os.path.join(workdir, "run.json"), encoding="utf-8") as fh:
            mc_mean = json.load(fh)["mc_mean"]
        mean = sum(r[1] for r in records) / len(records)
        return int(abs(mean - mc_mean) > REPLAY_ATOL)
    with open(os.path.join(workdir, "run.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(records):
        return abs(len(rows) - len(records))
    bad = 0
    for row, (distance, pur, dev) in zip(rows, records):
        pairs = [(row["trace_distance"], distance), (row["purity"], pur)]
        if dev is not None:
            pairs.append((row["max_coeff_dev"], dev))
        bad += any(abs(float(text) - value) > REPLAY_ATOL for text, value in pairs)
    return bad


def trace(spec: dict, seed: int, workdir: str) -> None:
    """Run the command with a span around every call into a layer, then the replay."""
    tracer = Tracer()
    with _patched(tracer, _command_targets()):
        tracer.begin("bench.command")
        code = run_command(spec, seed, workdir)
        tracer.end()
    command_end = time.monotonic()
    mismatches = None
    if code == 0:
        tracer.begin("bench.replay")
        records = _replay(tracer, spec, seed, workdir)
        tracer.end()
        mismatches = _replay_mismatches(spec, workdir, records)
    out = {"exit_code": code, "command_end": command_end, "replay_mismatches": mismatches,
           "spans": tracer.spans}
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    # the parent leaves the replay and the dump out of the traced command's time
    print(repr(time.monotonic()))


_COMMANDS = {"prepare": prepare, "setup": setup, "dense": run_command, "trace": trace}

if __name__ == "__main__":
    command, spec_json, seed_text, workdir_arg = sys.argv[1:5]
    sys.exit(_COMMANDS[command](json.loads(spec_json), int(seed_text), workdir_arg) or 0)
