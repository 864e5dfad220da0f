import csv
import json

import pytest

from typicality.cli import main


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


@pytest.mark.parametrize("content", ['{"dimS": 2}', "[1, 2]"])
def test_malformed_subspace_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "sub.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "subspace-info", "--subspace-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


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
    assert rows[0]["source_formula"] == "distance_tail"
    tails = [float(r["eta_prime"]) for r in rows if r["source_formula"] == "distance_tail"]
    assert tails[0] > tails[1] > tails[2]  # monotone in epsilon
    # the spherical lemma row at lipschitz 2 reproduces the distance-tail value
    levy = [float(r["eta_prime"]) for r in rows if r["source_formula"] == "levy_tail"]
    assert levy == pytest.approx(tails, rel=1e-12)
    formulas = {r["source_formula"] for r in rows}
    assert {"average_distance_eff", "average_distance_dr", "operator_basis_tail"} <= formulas


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
    code, out, _ = run_cli(capsys, "spin-chain", "--n", "12", "--k", "3", "--np", "6",
                           "--mode", "dense")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_subspace"] == 924
    assert payload["temperature"] == float("inf") or payload["temperature"] is None
    assert "threshold" in payload
    assert "product_approximation_distance" in payload


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
