import csv
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import typicality
from typicality.cli import main
from typicality.spin_chain import SpinChainReport

SRC = str(Path(typicality.__file__).resolve().parents[1])


def run_python(code, tmp_path, **env):
    """Run ``code`` in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True, timeout=120)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected a flag or a config entry
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_subspace_info_spin_chain(capsys):
    code, out, _ = run_cli(capsys, "subspace-info", "--spin-chain", "3", "1", "1",
                           "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["dim_subspace"] == 3
    assert info["effective_env_dim"] == pytest.approx(3.0)


def test_subspace_info_full_space(capsys):
    code, out, _ = run_cli(capsys, "subspace-info", "--full", "2", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["effective_env_dim"] == pytest.approx(2.0)


def test_subspace_info_from_file(tmp_path, capsys):
    import numpy as np

    from typicality.linalg import BipartiteShape
    from typicality.subspace import random_subspace

    sub = random_subspace(BipartiteShape(2, 3), 4, np.random.default_rng(6))
    path = tmp_path / "sub.json"
    sub.save(path)
    code, out, _ = run_cli(capsys, "subspace-info", "--subspace-file", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["dim_subspace"] == 4


def test_subspace_file_obeys_cap(tmp_path, capsys):
    import numpy as np

    from typicality.linalg import BipartiteShape
    from typicality.subspace import random_subspace

    path = tmp_path / "sub.json"
    random_subspace(BipartiteShape(4, 16), 4, np.random.default_rng(6)).save(path)
    code, out, err = run_cli(capsys, "subspace-info", "--subspace-file", str(path),
                             "--cap", "10")
    assert code == 2
    assert out == ""
    assert "error: dimension 64 exceeds dense cap 10" in err


def test_saved_chain_loads_without_cap_flag(tmp_path, capsys):
    from typicality.spin_chain import SpinChainModel, build_subspace

    path = tmp_path / "sub.json"
    build_subspace(SpinChainModel(16, 2, 8)).save(path)
    outputs = []
    for spec in (["--spin-chain", "16", "2", "8"], ["--subspace-file", str(path)]):
        code, out, err = run_cli(capsys, "subspace-info", *spec)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_full_space_runs_like_its_saved_file(tmp_path, capsys, fmt):
    # d_S * d_E = 6000 passes the default cap; an index-form space is capped on d_S
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"dimS": 2, "dimE": 3000, "flat_indices": list(range(6000))}))
    outputs = []
    for spec in (["--full", "2", "3000"], ["--subspace-file", str(path)]):
        code, out, err = run_cli(capsys, "subspace-info", *spec, "--format", fmt)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_full_space_is_capped_on_d_s(capsys):
    # both hold 8192 composite states; only d_S decides
    code, out, err = run_cli(capsys, "subspace-info", "--full", "64", "128")
    assert code == 0, err
    code, out, err = run_cli(capsys, "subspace-info", "--full", "8192", "1")
    assert (code, out) == (2, "")
    assert err == "error: dimension 8192 exceeds dense cap 4096\n"


@pytest.mark.parametrize("dim_s, dim_e, cap, message", [
    (8, 2, ["--cap", "4"], "error: dimension 8 exceeds dense cap 4"),
    (2, 2**40, [], f"error: dimension {2**41} exceeds index-form cap 2^26"),
])
def test_index_file_is_capped_like_a_chain(tmp_path, capsys, dim_s, dim_e, cap, message):
    # checked before the indices are read: d_S against --cap, d_S * d_E against 2^26
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"dimS": dim_s, "dimE": dim_e, "flat_indices": [0, 1]}))
    code, out, err = run_cli(capsys, "subspace-info", "--subspace-file", str(path), *cap)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("content", [
    '{"dimS": 2}',
    "[1, 2]",
    '{"dimS": 2, "dimE": 2, "basis": {"shape": [1, 4], "base64": "AAAA!"}}',
    '{"dimS": 1, "dimE": 2, "basis": [[["1", "0"], ["0", "0"]]]}',
])
def test_malformed_subspace_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "sub.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "subspace-info", "--subspace-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_purity_oracle_reads_both_basis_forms_alike(tmp_path, capsys):
    from typicality.linalg import BipartiteShape
    from typicality.subspace import random_subspace

    sub = random_subspace(BipartiteShape(2, 8), 5, np.random.default_rng(8))
    sub.save(tmp_path / "new.json")
    old = json.loads((tmp_path / "new.json").read_text(encoding="utf-8"))
    assert set(old["basis"]) == {"shape", "base64"}
    # the nested [re, im] pairs that earlier versions wrote
    old["basis"] = np.stack([sub.basis.real, sub.basis.imag], -1).tolist()
    (tmp_path / "old.json").write_text(json.dumps(old), encoding="utf-8")
    outputs = []
    for form in ("old", "new"):
        out = tmp_path / f"{form}-oracle.json"
        code, _, _ = run_cli(capsys, "purity-oracle", "--subspace-file",
                             str(tmp_path / f"{form}.json"), "--trials", "200", "--seed", "4",
                             "--output", str(out))
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_saved_chain_runs_like_the_chain(tmp_path, capsys):
    from typicality.spin_chain import SpinChainModel, build_subspace

    build_subspace(SpinChainModel(8, 2, 4)).save(tmp_path / "subspace.json")
    for name, spec in (("chain", ["--spin-chain", "8", "2", "4"]),
                       ("file", ["--subspace-file", str(tmp_path / "subspace.json")])):
        code, _, _ = run_cli(capsys, "experiment", *spec, "--trials", "300", "--seed", "6",
                             "--output", str(tmp_path / name))
        assert code == 0
    assert (tmp_path / "chain.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


#: A ``dimS``/``dimE`` pair with one value that is not an integer >= 1.  The
#: other dimension is chosen so that ``int()`` of the bad value would give a
#: composite of dimension 4, which a parser that converts would accept.
BAD_DIMENSIONS = [
    {key: value, other: 4 if value is True else 2}
    for key, other in (("dimS", "dimE"), ("dimE", "dimS"))
    for value in ([2], None, 2.7, True)
]


@pytest.mark.parametrize("dims", BAD_DIMENSIONS)
def test_subspace_file_with_non_integer_dimension_exits_2(tmp_path, capsys, dims):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({**dims, "basis": [[[1.0, 0.0]] + [[0.0, 0.0]] * 3]}))
    code, out, err = run_cli(capsys, "subspace-info", "--subspace-file", str(path))
    assert code == 2
    assert out == ""
    bad_key = next(key for key, value in dims.items() if value not in (2, 4))
    assert err.startswith(f"error: {bad_key} must be an integer >= 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("chain, miss", [(("8", "2", "4"), 2.0), (("24", "12", "12"), 2.0)])
def test_spin_chain_accepts_a_zero_half_width_as_experiment_does(tmp_path, capsys, chain, miss):
    # the Chernoff cap 2 exp(-xi^2 / (4 k p (1 - p))) is 2 at xi = 0
    n, k, np_ = chain
    code, out, err = run_cli(capsys, "spin-chain", "--n", n, "--k", k, "--np", np_, "--xi", "0")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["half_width"], report["miss_bound"]) == (0.0, miss)
    if chain == ("8", "2", "4"):
        code, _, err = run_cli(capsys, "experiment", "--spin-chain", n, k, np_, "--xi", "0",
                               "--trials", "20", "--seed", "1", "--output", str(tmp_path))
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command", [
    ["experiment", "--spin-chain", "9", "3", "4", "--seed", "1"],
    ["spin-chain", "--n", "9", "--k", "3", "--np", "4"],
])
def test_zero_half_width_on_an_empty_window_exits_2(tmp_path, capsys, command):
    code, out, err = run_cli(capsys, *command, "--xi", "0", "--output", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err.startswith("error: window [2, 1] is empty")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("xi", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["experiment", "--spin-chain", "8", "2", "4", "--seed", "1"],
    ["spin-chain", "--n", "8", "--k", "2", "--np", "4"],
])
def test_non_finite_xi_exits_2_before_any_output(tmp_path, capsys, command, xi):
    code, out, err = run_cli(capsys, *command, "--xi", xi, "--output", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: half_width must be finite and non-negative")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("d_eff", ["nan", "inf"])
def test_non_finite_d_eff_exits_2_before_any_output(tmp_path, capsys, d_eff, fmt):
    code, out, err = run_cli(capsys, "bounds", "--d-s", "4", "--d-r", "70", "--d-eff", d_eff,
                             "--format", fmt, "--output", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --d-eff must be a finite positive number")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["spin-chain", "--n", "1024", "--k", "2", "--np", "512", "--epsilon", "0.1"],
    ["spin-chain", "--n", "1100", "--k", "2", "--np", "550"],
    ["bounds", "--d-s", "2", "--d-r", "1" + "0" * 400],
])
def test_d_r_beyond_the_float_range_exits_2_before_any_output(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert err.startswith("error: d_R")
    assert "too large" in err


def test_spin_chain_just_inside_the_float_range_still_reports(capsys):
    code, out, _ = run_cli(capsys, "spin-chain", "--n", "1020", "--k", "2", "--np", "510")
    assert code == 0
    assert json.loads(out)["dim_subspace_bounds"]["upper"] == 2.0**1020


@pytest.mark.parametrize("command, field", [
    (["spin-chain", "--n", "8", "--k", "4", "--np", "3", "--xi", "1e6"], "support_dim_bound"),
    (["spin-chain", "--n", "1010", "--k", "1009", "--np", "336"], "support_dim_bound"),
    (["spin-chain", "--n", "1100", "--k", "1099", "--np", "366"], "support_dim_bound"),
    (["bounds", "--d-s", str(math.isqrt(int(0.85e308))), "--d-r", "1"], "coefficient_family_tail"),
    (["spin-chain", "--n", "8", "--k", "1", "--np", "4", "--xi", "1e300"], "threshold_asymptotic"),
    (["bounds", "--d-s", "1" + "0" * 160, "--d-r", "2", "--d-eff", "1"], "d_S"),
    (["bounds", "--d-s", str(math.isqrt(int(1.7e308))), "--d-r", "2", "--d-eff", "1",
      "--format", "json"], "d_S"),
])
def test_fields_beyond_the_float_range_exit_2_naming_the_field(capsys, command, field):
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field} ")
    assert "too large for a float" in err or "overflows a float" in err


@pytest.mark.parametrize("command, field, value", [
    # C(1031, j) passes the float range; the exact sum does not
    (["--n", "1032", "--k", "1031", "--np", "100"],
     "product_approximation_distance", 1.8322215121079846),
    # support^2 / d_R passes the float range; its root does not
    (["--n", "1100", "--k", "1099", "--np", "110"], "threshold", 1.5214471067523634e+158),
], ids=["product_approximation_distance", "threshold"])
def test_chain_fields_past_a_float_range_intermediate_still_report(capsys, command, field, value):
    code, out, err = run_cli(capsys, "spin-chain", *command)
    assert code == 0, err
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert payload[field] == value


def test_subspace_info_requires_one_spec(capsys):
    code, _, err = run_cli(capsys, "subspace-info")
    assert code == 2
    assert "exactly one" in err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "subspace-info", "--config", str(bad))
    assert code == 2
    assert "error" in err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["subspace-info", "--full", "2", "2", "--bogus"])
    assert exc.value.code == 2


def test_bounds_table(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--d-s", "4", "--d-r", "70", "--d-eff", "17.5",
        "--epsilon", "0.1", "--epsilon", "0.2", "--epsilon", "0.3",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    # the table of the first epsilon, then its epsilon rows for each other one
    per_epsilon = ["distance_tail", "levy_tail", "coefficient_family_tail"]
    assert [r["source_formula"] for r in rows] == [
        "average_distance_eff", "average_distance_dr", "distance_tail", "levy_tail",
        "operator_basis_tail", "coefficient_family_tail", *per_epsilon, *per_epsilon,
    ]
    assert [r["epsilon"] for r in rows if r["source_formula"] in per_epsilon] == (
        ["0.10000000000000001"] * 3 + ["0.20000000000000001"] * 3 + ["0.29999999999999999"] * 3
    )
    tails = [float(r["eta_prime"]) for r in rows if r["source_formula"] == "distance_tail"]
    assert tails[0] > tails[1] > tails[2]  # monotone in epsilon
    # the spherical lemma row at lipschitz 2 reproduces the distance-tail value
    levy = [float(r["eta_prime"]) for r in rows if r["source_formula"] == "levy_tail"]
    assert levy == pytest.approx(tails, rel=1e-12)
    formulas = {r["source_formula"] for r in rows}
    assert {"average_distance_eff", "average_distance_dr", "operator_basis_tail"} <= formulas


def _refuse_constant(token):
    raise ValueError(f"not JSON: {token}")


@pytest.mark.parametrize("d_s", [
    "1", "4", "1" + "0" * 100, str(math.isqrt(int(0.85e308))), str(math.isqrt(int(1.7e308))),
], ids=["1", "4", "1e100", "isqrt(0.85e308)", "isqrt(1.7e308)"])
@pytest.mark.parametrize("d_r", ["1", "70", "1" + "0" * 300], ids=["1", "70", "1e300"])
def test_bounds_writes_strict_json_or_exits_2(capsys, d_s, d_r):
    # every table that bounds writes parses without Infinity or NaN
    for d_eff in ([], ["--d-eff", "1e-320"], ["--d-eff", "1e-300"], ["--d-eff", "1e300"]):
        for eps in ([], ["--epsilon", "1e-300"], ["--epsilon", "0.1", "--epsilon", "0.3"],
                    ["--epsilon", "1e200"]):
            argv = ["bounds", "--d-s", d_s, "--d-r", d_r, *d_eff, *eps, "--format", "json"]
            code, out, err = run_cli(capsys, *argv)
            if code == 0:
                assert json.loads(out, parse_constant=_refuse_constant), argv
            else:
                assert (code, out) == (2, ""), argv
                assert err.startswith("error: "), argv


#: The names a spin-chain refusal may start with: d_R, or a field of the report.
CHAIN_FIELDS = {"d_R", *(f.name for f in dataclasses.fields(SpinChainReport))}


@pytest.mark.parametrize("n", [8, 12, 200, 1000, 1020])
def test_spin_chain_writes_strict_json_or_exits_2(capsys, n):
    # the grid holds every half-filled chain's infinite temperature,
    # support_dim_bound at (200, 1, 66) --xi 1000, threshold at (1000, 999, 333)
    # and threshold_asymptotic at (1020, 1019, 1)
    for k in sorted({1, 2, n // 2, n - 1}):
        for np_ in sorted({1, n // 3, n // 2, n - 1}):
            for xi in ([], ["--xi", "0.5"], ["--xi", "1000"], ["--xi", "1e300"]):
                argv = ["spin-chain", "--n", str(n), "--k", str(k), "--np", str(np_), *xi]
                code, out, err = run_cli(capsys, *argv)
                if code == 0:
                    assert json.loads(out, parse_constant=_refuse_constant), argv
                else:
                    assert (code, out) == (2, ""), argv
                    assert err.startswith("error: ") and err.split()[1] in CHAIN_FIELDS, argv


@pytest.mark.parametrize("flags", [
    ["--spin-chain", "8", "2", "4"],
    ["--full", "2", "8", "--epsilon", "0.3"],
])
def test_experiment_bound_rows_are_the_rows_of_bounds(tmp_path, capsys, flags):
    # one formula table: run.json's rows equal the same-named rows of bounds
    # at the run's (d_S, d_R, d_E_eff, epsilon), bound and threshold alike
    assert main(["experiment", *flags, "--trials", "50", "--seed", "1",
                 "--output", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "run.json").read_text())
    info, epsilon = summary["subspace"], summary["config"]["epsilon"]
    code, out, _ = run_cli(
        capsys, "bounds", "--d-s", str(info["dim_system"]), "--d-r", str(info["dim_subspace"]),
        "--d-eff", repr(info["effective_env_dim"]),
        *([] if epsilon is None else ["--epsilon", repr(epsilon)]),
    )
    assert code == 0
    table = {r["source_formula"]: r for r in csv.DictReader(out.splitlines())}
    assert len(summary["bounds"]) >= 5
    for row in summary["bounds"]:
        printed = table[row["name"]]
        if row["threshold"] is None:
            assert (printed["eta"], printed["eta_prime"]) == (f"{row['formula_value']:.17g}", "")
        else:
            assert (printed["eta"], printed["eta_prime"]) == (
                f"{row['threshold']:.17g}", f"{row['formula_value']:.17g}")


def test_experiment_requires_seed(tmp_path, capsys):
    code, _, err = run_cli(capsys, "experiment", "--spin-chain", "3", "1", "1",
                           "--trials", "10", "--output", str(tmp_path / "x"))
    assert code == 2
    assert "seed" in err


def test_experiment_writes_artifacts(tmp_path, capsys):
    prefix = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "experiment", "--spin-chain", "8", "2", "4",
        "--trials", "300", "--seed", "7", "--output", str(prefix),
    )
    assert code == 0
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.startswith("trial,trace_distance,purity,max_coeff_dev")
    assert len(csv_text.splitlines()) == 301
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["config"]["seed"] == 7
    assert payload["schema_version"] == 1
    assert "average_distance_dr" in {row["name"] for row in payload["bounds"]}
    assert "ok" in out


def test_chain_beyond_composite_cap_runs_without_cap_flag(tmp_path, capsys):
    # 2^13 composite strings exceed the default cap, d_S = 4 does not
    code, _, err = run_cli(capsys, "experiment", "--spin-chain", "13", "2", "6",
                           "--trials", "10", "--seed", "1", "--output", str(tmp_path / "e"))
    assert code == 0, err


def test_window_filter_at_sixteen_sites(tmp_path, capsys):
    code, out, err = run_cli(capsys, "experiment", "--spin-chain", "16", "2", "8", "--xi", "1",
                             "--trials", "20", "--seed", "1", "--output", str(tmp_path / "e"))
    assert code == 0, err
    assert "filtered_distance_tail: formula" in out


def test_experiment_rerun_is_byte_identical(tmp_path, capsys):
    args = ("experiment", "--spin-chain", "4", "2", "2", "--trials", "200", "--seed", "13")
    run_cli(capsys, *args, "--output", str(tmp_path / "a"))
    run_cli(capsys, *args, "--output", str(tmp_path / "b"), "--workers", "3")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("flag", ["--trials", "--workers"])
def test_experiment_rejects_zero_trials_or_workers(tmp_path, capsys, flag):
    args = {"--trials": "5", "--workers": "1", flag: "0"}
    code, _, err = run_cli(capsys, "experiment", "--spin-chain", "3", "1", "1", "--seed", "1",
                           *(tok for item in args.items() for tok in item),
                           "--output", str(tmp_path / "run"))
    assert code == 2
    assert f"error: {flag[2:]} must be >= 1" in err
    assert not (tmp_path / "run.csv").exists()


def test_experiment_single_trial_and_mean_bound(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "experiment", "--spin-chain", "8", "2", "4",
                         "--trials", "1", "--seed", "99",
                         "--output", str(tmp_path / "one"))
    assert code == 0
    code, _, _ = run_cli(capsys, "experiment", "--spin-chain", "8", "2", "4",
                         "--trials", "500", "--seed", "99",
                         "--output", str(tmp_path / "many"))
    assert code == 0
    payload = json.loads((tmp_path / "many.json").read_text())
    assert payload["stats"]["trace_distance"]["mean"] <= (16 / 70) ** 0.5


def test_experiment_single_trial_uses_range_bound_for_standard_error(tmp_path, capsys):
    # One trial has no sample spread, so the mean's standard error comes from
    # the range of the trace distance; a zero error would read the single
    # distance 0.318 as violating average_distance_eff (0.300).
    code, out, _ = run_cli(capsys, "experiment", "--spin-chain", "8", "2", "4",
                           "--trials", "1", "--seed", "1",
                           "--output", str(tmp_path / "one"))
    assert code == 0
    assert "VIOLATED" not in out


def test_purity_oracle_single_trial_exits_2(capsys):
    code, out, err = run_cli(capsys, "purity-oracle", "--full", "2", "2",
                             "--trials", "1", "--seed", "21")
    assert code == 2
    assert out == ""
    assert "trials >= 2" in err


def test_memory_error_exits_2_without_traceback(monkeypatch, capsys):
    def exhausted(sub):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr("typicality.cli.canonical_ensemble", exhausted)
    code, out, err = run_cli(capsys, "subspace-info", "--full", "2", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "64.0 GiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, message", [("--trials", "trials >= 2"),
                                           ("--workers", "workers must be >= 1")])
def test_purity_oracle_rejects_zero_trials_or_workers(capsys, flag, message):
    args = {"--trials": "4", "--workers": "1", flag: "0"}
    code, out, err = run_cli(capsys, "purity-oracle", "--full", "2", "2", "--seed", "21",
                             *(tok for item in args.items() for tok in item))
    assert code == 2
    assert out == ""
    assert message in err


def test_bounds_invalid_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "--d-s", "0", "--d-r", "70")
    assert code == 2
    assert "positive" in err


def test_experiment_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spin-chain": [3, 1, 1], "trials": 50, "seed": 3,
                               "workers": None, "bogus": [1, 2]}))
    prefix = tmp_path / "from_cfg"
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                         "--output", str(prefix), "--trials", "20")
    assert code == 0
    payload = json.loads((tmp_path / "from_cfg.json").read_text())
    assert payload["config"]["trials"] == 20  # flag wins
    assert payload["config"]["seed"] == 3     # file fills the rest


def test_experiment_config_values_are_parsed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spin_chain": ["3", "1", "1"], "trials": "50", "seed": "3"}))
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                         "--output", str(tmp_path / "run"))
    assert code == 0
    assert len((tmp_path / "run.csv").read_text().splitlines()) == 51
    config = json.loads((tmp_path / "run.json").read_text())["config"]
    assert (config["trials"], config["seed"]) == (50, 3)


@pytest.mark.parametrize("content", ['{"trials": 1.5}', "[1, 2]"])
def test_experiment_invalid_config_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                           "--spin-chain", "3", "1", "1", "--seed", "1",
                           "--output", str(tmp_path / "run"))
    assert code == 2
    assert "error:" in err
    assert not (tmp_path / "run.csv").exists()


def test_spin_chain_report_command(capsys):
    code, out, _ = run_cli(capsys, "spin-chain", "--n", "12", "--k", "3", "--np", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_subspace"] == 924
    assert payload["temperature"] == float("inf") or payload["temperature"] is None
    assert "threshold" in payload
    assert "product_approximation_distance" in payload


def test_spin_chain_report_beyond_dense_range(capsys):
    code, out, _ = run_cli(capsys, "spin-chain", "--n", "30", "--k", "13", "--np", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_system"] == 2**13
    assert 0.0 < payload["product_approximation_distance"] < 2.0
    assert 0.0 < payload["system_purity"] < 1.0
    assert payload["effective_env_dim"] > 1.0


def test_spin_chain_mode_flag_is_gone(capsys):
    code, _, err = run_cli(capsys, "spin-chain", "--n", "8", "--k", "2", "--np", "4",
                           "--mode", "dense")
    assert code == 2
    assert "unrecognized arguments: --mode dense" in err


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # d_R = 12 870: longer than the dot products OpenBLAS keeps on one thread.
    # Every slab product sums over environment groups, which add_product cuts:
    # (18,2,9) has shells of 11 440 and 12 870 groups, more than a piece
    # holds, and (16,6,8) (blocks of up to 20 indices) and --full 40 300 sum
    # over up to 252 and over 300 groups, past 128 and no whole multiple of it.
    # The dense files are written once, here, since the QR of random_subspace
    # follows the thread count; the load, the lift over d_R = 40, 160 and 300
    # coordinates, the (31, 132) slab products and the ensemble must not.
    from typicality.linalg import BipartiteShape
    from typicality.subspace import random_subspace

    code = (
        "from typicality.cli import main\n"
        "main(['experiment', '--spin-chain', '16', '2', '8', '--trials', '50',"
        " '--seed', '1', '--output', 'run'])\n"
        "main(['purity-oracle', '--spin-chain', '16', '2', '8', '--trials', '50',"
        " '--seed', '1', '--output', 'oracle.json'])\n"
        "main(['experiment', '--spin-chain', '18', '2', '9', '--trials', '30',"
        " '--seed', '3', '--output', 'run18'])\n"
        "main(['experiment', '--spin-chain', '16', '6', '8', '--trials', '60',"
        " '--seed', '1', '--output', 'run16_6'])\n"
        "main(['experiment', '--full', '40', '300', '--trials', '4',"
        " '--seed', '1', '--output', 'full'])\n"
    )
    names = ["run.csv", "run.json", "oracle.json", "run18.csv", "run18.json",
             "run16_6.csv", "run16_6.json", "full.csv", "full.json"]
    for d_s, d_e, d_r in ((8, 64, 160), (4, 100, 300), (31, 132, 40)):
        sub = random_subspace(BipartiteShape(d_s, d_e), d_r, np.random.default_rng(d_r))
        sub.save(tmp_path / f"subspace{d_r}.json")
        spec = f"'--subspace-file', '../subspace{d_r}.json', '--trials', '50', '--seed', '1'"
        code += (f"main(['experiment', {spec}, '--output', 'run{d_r}'])\n"
                 f"main(['purity-oracle', {spec}, '--output', 'oracle{d_r}.json'])\n")
        names += [f"run{d_r}.csv", f"run{d_r}.json", f"oracle{d_r}.json"]
    # marginals: 2-d weights, which no command passes, lifted over d_R = 300,
    # and a system marginal of 132-term sums at d_S = 31
    sub = random_subspace(BipartiteShape(31, 132), 8, np.random.default_rng(8))
    np.save(tmp_path / "basis8.npy", sub.basis)
    code += (
        "import numpy as np\n"
        "from typicality.linalg import BipartiteShape\n"
        "from typicality.subspace import ConstraintSubspace\n"
        "w = np.random.default_rng(0).standard_normal((300, 300))\n"
        "sub = ConstraintSubspace(BipartiteShape(31, 132), dense_basis=np.load('../basis8.npy'))\n"
        "subs = [(ConstraintSubspace.load('../subspace300.json'), w + w.T, 2.0), (sub, np.ones(8), 8)]\n"
        "with open('marginals.bin', 'wb') as fh:\n"
        "    for sub, weights, divisor in subs:\n"
        "        omega_s, env_purity = sub.marginals(weights, divisor)\n"
        "        fh.write(omega_s.tobytes() + np.float64(env_purity).tobytes())\n"
    )
    names.append("marginals.bin")
    artifacts = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        run_python(code, cwd, OPENBLAS_NUM_THREADS=threads)
        artifacts[threads] = [(cwd / name).read_bytes() for name in names]
    assert artifacts["1"] == artifacts["2"]


def test_chain_experiment_does_not_import_numpy_ma(tmp_path):
    code = (
        "import sys\n"
        "from typicality.cli import main\n"
        "main(['experiment', '--spin-chain', '8', '2', '4', '--trials', '10',"
        " '--seed', '1', '--output', 'run'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert run_python(code, tmp_path).stdout.splitlines()[-1] == "False"


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # the pool's modules load only for a run split across workers
    code = "import sys\nimport typicality.cli\nprint('concurrent.futures' in sys.modules)\n"
    assert run_python(code, tmp_path).stdout.splitlines()[-1] == "False"


def test_importing_the_package_loads_no_numpy_random(tmp_path):
    # stream_generators imports numpy's seeding interface when it first runs
    code = "import sys\nimport typicality\nprint('numpy.random' in sys.modules)\n"
    assert run_python(code, tmp_path).stdout.splitlines()[-1] == "False"


def test_readme_quick_start_runs(tmp_path, capsys, monkeypatch):
    # the README's one python block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    run_python(blocks[0].split("```")[0], tmp_path)  # raises unless it exits 0
    # and every typicality line of its shell blocks, continuation lines joined
    lines = [line for block in readme.split("```sh\n")[1:]
             for line in block.split("```")[0].replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("typicality ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(capsys, *argv[1:])[0] == 0, argv


def test_unwritable_output_exits_4(tmp_path, capsys):
    code, _, err = run_cli(capsys, "experiment", "--spin-chain", "3", "1", "1",
                           "--trials", "5", "--seed", "1",
                           "--output", str(tmp_path / "missing" / "run"))
    assert code == 4
    assert "io error" in err


def test_purity_oracle_with_mc(capsys):
    code, out, _ = run_cli(capsys, "purity-oracle", "--full", "2", "2",
                           "--trials", "4000", "--seed", "21")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_average_purity"] == pytest.approx(0.8, abs=1e-12)
    assert abs(payload["z_score"]) <= 3.0


def test_purity_oracle_trials_without_seed_exits_2_writing_nothing(tmp_path, capsys):
    path = tmp_path / "oracle.json"
    code, out, err = run_cli(capsys, "purity-oracle", "--full", "2", "2",
                             "--trials", "10", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: --seed is required for sampling commands\n"
    assert not path.exists()


def test_purity_oracle_far_mean_exits_3_and_still_writes(tmp_path, capsys, monkeypatch):
    def far_mean(sub, trials, seed, workers):
        return 0.9, 0.01  # exact 0.8: z = 10

    monkeypatch.setattr("typicality.experiments.mc_average_purity", far_mean)
    path = tmp_path / "oracle.json"
    code, out, _ = run_cli(capsys, "purity-oracle", "--full", "2", "2",
                           "--trials", "10", "--seed", "1", "--output", str(path))
    assert code == 3
    assert out == ""
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["exact_average_purity"] == pytest.approx(0.8, abs=1e-12)
    assert payload["mc_mean"] == 0.9 and payload["z_score"] == pytest.approx(10.0)
    assert payload["trials"] == 10 and payload["seed"] == 1


@pytest.mark.parametrize("source", ["full", "dense"])
def test_purity_oracle_zero_variance_purity_is_agreement(tmp_path, capsys, source):
    # every state is pure, so mean and exact differ by round-off only, and
    # so does the standard error: z is 0, not a ratio of two round-offs
    from typicality.linalg import BipartiteShape
    from typicality.subspace import random_subspace

    if source == "full":  # the ratio would read z = -5.0
        spec = ["--full", "1", "5", "--seed", "27"]
    else:  # d_E = 1; the ratio would read z = 3.76
        path = tmp_path / "subspace.json"
        random_subspace(BipartiteShape(4, 1), 3, np.random.default_rng(3)).save(path)
        spec = ["--subspace-file", str(path), "--seed", "8"]
    code, out, _ = run_cli(capsys, "purity-oracle", *spec, "--trials", "50")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["mc_mean"] - payload["exact_average_purity"]) <= 1e-10
    assert payload["z_score"] == 0.0
