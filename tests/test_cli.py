"""CLI: config parsing, subcommand dispatch, exit codes."""

import json

import pytest

from kaclab.cli import EXIT_CERT, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main, parse_config
from kaclab.errors import ConfigError
from kaclab.interaction import potential_from_spec
from kaclab.storage import load_field


def write_config(tmp_path, **sections):
    data = {
        "disorder": {"d": 2, "rho": 1.0, "N": 16, "nu": 0.0, "r": 0.6, "h": 0.5,
                     "seed": 1},
        "potential": {"kind": "gaussian", "kappa": 0.0, "width": 0.5},
    }
    for key, val in sections.items():
        if isinstance(val, dict):
            data.setdefault(key, {}).update(val)
        else:
            data[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.data["solver"]["el_tol"] == 1e-8
        assert cfg.data["ensemble"]["eta"] == 0.1
        assert cfg.disorder_config().N == 16

    def test_round_trip_through_echo(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(cfg.to_dict()))
        again = parse_config(echo)
        assert again.to_dict() == cfg.to_dict()

    def test_h_not_below_r_names_both_fields(self, tmp_path):
        path = write_config(tmp_path, disorder={"h": 0.6, "r": 0.6})
        with pytest.raises(ConfigError, match="h=0.6.*r=0.6"):
            parse_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"disordr": {}}))
        with pytest.raises(ConfigError, match="disordr"):
            parse_config(path)
        path.write_text(json.dumps({"disorder": {"sigma": 1.0}}))
        with pytest.raises(ConfigError, match="disorder.sigma"):
            parse_config(path)

    def test_overrides_apply_and_validate(self, tmp_path):
        path = write_config(tmp_path)
        cfg = parse_config(path, overrides=["disorder.seed=99", "potential.kappa=0.25"])
        assert cfg.disorder_config().seed == 99
        assert cfg.data["potential"]["kappa"] == 0.25
        with pytest.raises(ConfigError):
            parse_config(path, overrides=["disorder.bogus=1"])


class TestSubcommands:
    def test_sample_writes_dump(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["sample", "-c", str(path), "-o", str(out)]) == EXIT_OK
        assert (out / "realization.klvac").exists()
        assert (out / "realization.klvac.json").exists()
        assert (out / "config_echo.json").exists()
        assert "kaclab" in (out / "version.txt").read_text()
        assert "K=1" in capsys.readouterr().out

    def test_spectrum_dumps_eigenfunctions(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["spectrum", "-c", str(path), "-o", str(out)]) == EXIT_OK
        grid, h, meta = load_field(out / "phi1.kleig")
        assert grid.shape == (7, 7)
        assert meta["index"] == 1
        assert len(meta["eigenvalues"]) == 2

    def test_certify_noninteracting_golden_fixture(self, tmp_path, capsys):
        # N=2 keeps the exact-diagonalization basis small (same L via rho)
        path = write_config(tmp_path, disorder={"N": 2, "rho": 0.125})
        out = tmp_path / "run"
        assert main(["certify", "-c", str(path), "-o", str(out),
                     "--with-oracle"]) == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["gap_event"]["ok"]
        assert cert["energy_bound"] == 0.0
        assert "PASS" in capsys.readouterr().out

    def test_hartree_appends_record(self, tmp_path):
        path = write_config(tmp_path, potential={"kappa": 0.3})
        out = tmp_path / "run"
        assert main(["hartree", "-c", str(path), "-o", str(out),
                     "--dump-state"]) == EXIT_OK
        lines = (out / "hartree.jsonl").read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert set(rec) == {"component", "energy", "e1", "e2", "shift",
                            "iterations", "el_residual"}
        grid, _, _ = load_field(out / "hartree_u.kleig")
        assert grid.shape == (7, 7)

    def test_oracle_summary_and_reuse_of_dump(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["sample", "-c", str(path), "-o", str(out)]) == EXIT_OK
        code = main(["oracle", "-c", str(path), "-o", str(out),
                     "--realization", str(out / "realization.klvac"),
                     "--set", "oracle.N=2"])
        assert code == EXIT_OK
        summary = json.loads((out / "oracle.json").read_text())
        assert summary["basis_dim"] == 49 * 50 // 2
        assert summary["rho1_trace"] == pytest.approx(1.0, abs=1e-12)

    def test_oracle_over_cap_exits_2_with_dimension(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["oracle", "-c", str(path), "-o", str(out),
                     "--set", "oracle.N=3", "--set", "oracle.basis_cap=100"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "20825" in err  # C(49+3-1, 3)

    def test_ensemble_writes_records(self, tmp_path):
        path = write_config(tmp_path, disorder={"nu": 0.3},
                            ensemble={"seeds": 10, "eta": 0.1})
        out = tmp_path / "run"
        # estimate_event_probabilities needs >= 30 seeds only via the module
        # API guard; the CLI reuses the already-computed records
        assert main(["ensemble", "-c", str(path), "-o", str(out)]) == EXIT_OK
        lines = (out / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_records"] == 10

    def test_sweep_writes_table(self, tmp_path):
        path = write_config(tmp_path, ensemble={"seeds": 1,
                                                "N_values": [16, 64, 256]})
        out = tmp_path / "run"
        assert main(["sweep", "-c", str(path), "-o", str(out)]) == EXIT_OK
        csv = (out / "sweep.csv").read_text().splitlines()
        assert csv[0].startswith("N,")
        assert len(csv) == 4

    def test_usage_error_exit_2(self, tmp_path):
        path = write_config(tmp_path, disorder={"h": 0.7})
        assert main(["sample", "-c", str(path),
                     "-o", str(tmp_path / "r")]) == EXIT_USAGE
        assert main(["sample", "-c", str(tmp_path / "missing.json"),
                     "-o", str(tmp_path / "r")]) == EXIT_USAGE

    def test_solver_failure_exit_3(self, tmp_path):
        path = write_config(tmp_path, potential={"kappa": 1.0},
                            solver={"max_iter": 1, "el_tol": 1e-14})
        out = tmp_path / "run"
        assert main(["hartree", "-c", str(path), "-o", str(out)]) == EXIT_SOLVER

    def test_failed_assertion_exit_1(self, tmp_path, monkeypatch):
        import kaclab.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "certificate_assertions",
            lambda cert, eig_tol_abs=0.0: [("forced_failure", False, -1.0)],
        )
        path = write_config(tmp_path, disorder={"N": 2, "rho": 0.125})
        out = tmp_path / "run"
        assert main(["certify", "-c", str(path), "-o", str(out)]) == EXIT_CERT


class TestPotentialKindsViaConfig:
    def test_top_hat_spec(self, tmp_path):
        path = write_config(
            tmp_path,
            potential={"kind": "top_hat", "kappa": 0.1, "radius": 0.8,
                       "allow_non_posdef": True},
        )
        cfg = parse_config(path)
        v = potential_from_spec(cfg.potential_spec(), 4, 2, 0.5)
        assert v.kind == "top_hat" and not v.pos_def

    def test_custom_table_spec(self, tmp_path):
        table = tmp_path / "profile.txt"
        table.write_text("0.0 1.0\n1.0 0.0\n")
        path = write_config(
            tmp_path,
            potential={"kind": "custom_table", "kappa": 0.2,
                       "table_path": str(table)},
        )
        cfg = parse_config(path)
        v = potential_from_spec(cfg.potential_spec(), 4, 2, 0.5)
        assert v.kind == "custom_table" and v.v_at_zero > 0.0
