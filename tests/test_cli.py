"""CLI: config parsing, the command table, exit codes."""

import argparse
import json
import logging
from pathlib import Path

import numpy as np
import pytest

import kaclab.cli as cli_mod
from kaclab import EnsembleSpec, ensemble
from kaclab.cli import (
    EXIT_CERT, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, build_parser, main, parse_config,
)
from kaclab.errors import ConfigError, KacLabError
from kaclab.interaction import potential_from_spec
from kaclab.storage import load_field

from conftest import positive_definite

# a custom_table profile with a negative value
NEGATIVE_TABLE = Path(__file__).parent / "data" / "table_negative.txt"


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
        assert cfg.disorder.N == 16

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
        assert cfg.disorder.seed == 99
        assert cfg.data["potential"]["kappa"] == 0.25
        with pytest.raises(ConfigError):
            parse_config(path, overrides=["disorder.bogus=1"])

    def test_ensemble_spec_takes_every_section_key(self, tmp_path):
        given = {
            "solver": {"el_tol": 3e-7, "eig_tol": 2e-10},
            "ensemble": {"seeds": [5, 9], "master_seed": 11, "N_values": [8, 16, 32],
                         "eta": 0.2, "sigma_ref": 1.5, "workers": 3},
        }
        cfg = parse_config(write_config(tmp_path, **given))
        spec = cfg.spec
        defaults = EnsembleSpec(base={}, potential={})
        for section, values in given.items():
            assert set(values) == set(cfg.data[section])
            for key, value in values.items():
                assert value != getattr(defaults, key)
                assert getattr(spec, key) == value
        disorder = dict(cfg.data["disorder"])
        del disorder["seed"]
        assert spec.base == disorder
        assert spec.potential == cfg.data["potential"]


class TestCommandTable:
    def test_every_handler_is_a_registered_command(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        registered = [p.get_default("handler") for p in sub.choices.values()]
        handlers = {obj for name, obj in vars(cli_mod).items() if name.startswith("cmd_")}
        assert len(registered) == len(handlers) == 7
        assert set(registered) == handlers
        for argv in [["--help"]] + [[name, "--help"] for name in sub.choices]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0


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

    @pytest.mark.parametrize("level, logged", [("DEBUG", 1), ("INFO", 0)])
    def test_log_level_sets_the_package_logger(self, tmp_path, caplog, level, logged):
        # caplog captures DEBUG and restores the logger's level after the test;
        # main then sets that level from the config
        caplog.set_level(logging.DEBUG, logger="kaclab")
        path = write_config(tmp_path, potential={"kappa": 0.3}, log_level=level)
        out = tmp_path / "run"
        assert main(["hartree", "-c", str(path), "-o", str(out)]) == EXIT_OK
        rec = json.loads((out / "hartree.jsonl").read_text())
        flow = [r for r in caplog.records if r.name == "kaclab.hartree"]
        assert len(flow) == logged
        if logged:
            assert flow[0].levelno == logging.DEBUG
            assert f"{rec['iterations']} iterations" in flow[0].getMessage()

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

    @pytest.mark.parametrize("damage, fault", [
        pytest.param("missing", "No such file", id="missing"),
        pytest.param("bad_magic", "bad magic b'XXXXXX'", id="bad_magic"),
        pytest.param("sidecar_without_config", "sidecar is not an object with a 'config' object",
                     id="sidecar_without_config"),
        pytest.param("sidecar_not_an_object", "sidecar is not an object with a 'config' object",
                     id="sidecar_not_an_object"),
        pytest.param("config_unknown_key", "unknown keys ['colour'] and lacks []",
                     id="config_unknown_key"),
        pytest.param("summary_without_K", "sidecar summary.K=None must be an integer >= 0",
                     id="summary_without_K"),
    ])
    def test_unreadable_realization_is_one_error_line(self, tmp_path, capsys, damage, fault):
        path = write_config(tmp_path)
        dump = tmp_path / "dump" / "realization.klvac"
        sidecar_path = tmp_path / "dump" / "realization.klvac.json"
        assert main(["sample", "-c", str(path), "-o", str(dump.parent)]) == EXIT_OK
        sidecar = json.loads(sidecar_path.read_text())
        if damage == "missing":
            dump.unlink()
        elif damage == "bad_magic":
            dump.write_bytes(b"XXXXXX" + dump.read_bytes()[6:])
        elif damage == "config_unknown_key":
            sidecar["config"]["colour"] = 1
        elif damage == "summary_without_K":
            del sidecar["summary"]["K"]
        else:
            sidecar = {"format": "KLVAC1"} if damage == "sidecar_without_config" else [1, 2]
        sidecar_path.write_text(json.dumps(sidecar))
        capsys.readouterr()
        out = tmp_path / "run"
        code = main(["oracle", "-c", str(path), "-o", str(out), "--realization", str(dump)])
        assert code == EXIT_USAGE
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: cannot load realization {dump}: ")
        assert fault in err
        # the dump is checked before the run directory is written
        assert not out.exists()

    def test_oracle_dump_state_writes_psi(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["oracle", "-c", str(path), "-o", str(out),
                     "--dump-state"]) == EXIT_OK
        summary = json.loads((out / "oracle.json").read_text())
        psi = np.load(out / "oracle_psi.npy")
        assert psi.shape == (summary["basis_dim"],)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("argv", [
        ["sweep"],
        ["ensemble", "--set", "ensemble.N_values=[64,16]"],
        ["ensemble", "--set", "ensemble.seeds=0"],
        ["ensemble", "--set", 'ensemble.workers="2"'],
        ["ensemble", "--set", "solver.eig_tol=x"],
        ["sample", "--set", "disorder=5"],
        ["ensemble", "--set", "potential.kind=foo"],
        ["ensemble", "--set", "potential.kind=[1]"],
        ["ensemble", "--set", "potential.kind=null"],
        ["ensemble", "--set", "potential.kappa=null"],
        ["ensemble", "--set", "potential.table=[[0,1]]"],
        ["ensemble", "--set", "solver.max_iter=5"],
        ["ensemble", "--set", "disorder.N=1"],
        ["ensemble", "--set", 'ensemble.seeds="30"'],
        ["ensemble", "--set", "ensemble.seeds=true"],
        ["ensemble", "--set", "ensemble.seeds=[]"],
        ["ensemble", "--set", "ensemble.seeds=2.5"],
        ["ensemble", "--set", "ensemble.master_seed=x"],
        ["ensemble", "--set", "ensemble.N_values=5"],
        ["ensemble", "--set", "ensemble.seeds=[1,2.0]"],
        ["ensemble", "--set", "ensemble.master_seed=-1"],
        ["ensemble", "--set", "ensemble.N_values=[16,64.0,256]"],
        ["sample", "--set", "log_level=LOUD"],
        ["sample", "--set", "log_level=10"],
        ["oracle", "--set", "oracle.basis_cap=abc"],
        ["oracle", "--set", "oracle.N=abc"],
        ["ensemble", "--set", "disorder.nu=NaN"],
        ["ensemble", "--set", "potential.kappa=NaN"],
        ["ensemble", "--set", "potential.width=NaN"],
        ["hartree", "--set", "disorder.seed=-1"],
        ["hartree", "--set", "disorder.seed=1.5"],
        ["hartree", "--set", "disorder.d=2.0"],
        ["hartree", "--set", "disorder.rho=true"],
        ["hartree", "--set", "disorder.nu=abc"],
        ["hartree", "--set", "potential.width=abc"],
        ["hartree", "--set", "potential.truncation=true"],
        ["hartree", "--set", "potential.kind=top_hat", "--set", "potential.kappa=1",
         "--set", "potential.allow_non_posdef=no"],
        ["hartree", "--set", "potential.kind=custom_table", "--set", "potential.table_path=5"],
        ["hartree", "--set", "potential.kind=custom_table",
         "--set", "potential.table_path=no/such/table.txt"],
        ["sample", "--set", "potential.kind=custom_table",
         "--set", f"potential.table_path={NEGATIVE_TABLE}"],
        ["ensemble", "--set", "ensemble.N_values=[1,2,3]"],
    ], ids=["sweep_default", "N_values_decrease", "no_seeds", "workers_string",
            "eig_tol_string", "whole_section", "unknown_potential_kind", "potential_kind_list",
            "potential_kind_null", "potential_kappa_null", "potential_table", "solver_max_iter", "N_below_two",
            "seeds_string", "seeds_bool", "seeds_empty", "seeds_float",
            "master_seed_string", "N_values_scalar", "seeds_float_entry",
            "master_seed_negative", "N_values_float_entry", "log_level_unknown",
            "log_level_number", "oracle_basis_cap_string", "oracle_N_string",
            "disorder_nu_nan", "potential_kappa_nan", "potential_width_nan",
            "seed_negative", "seed_float", "d_float", "rho_bool", "nu_string",
            "width_string", "truncation_bool", "allow_non_posdef_string",
            "table_path_number", "table_path_missing", "table_negative",
            "N_values_below_two"])
    def test_config_error_is_one_error_line(self, tmp_path, capsys, request, argv):
        assert main(argv + ["-o", str(tmp_path / "run")]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "run" / "records.jsonl").exists()
        # every value is checked before the run directory is written, less what
        # depends on the subcommand: a sweep's three N values, a built potential's N
        if request.node.callspec.id not in ("sweep_default", "N_below_two"):
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["spectrum", "oracle"])
    def test_empty_vacancy_set_is_an_error_line(self, tmp_path, capsys, command):
        path = write_config(tmp_path, disorder={"nu": 50, "h": 0.4})
        code = main([command, "-c", str(path), "-o", str(tmp_path / "run")])
        assert code == EXIT_CERT
        err = capsys.readouterr().err
        assert err.strip() == "error: empty vacancy set"

    def test_solver_failure_exit_3(self, tmp_path, monkeypatch):
        from kaclab import hartree

        monkeypatch.setattr(hartree, "MAX_ITER", 1)
        path = write_config(tmp_path, potential={"kappa": 1.0}, solver={"el_tol": 1e-14})
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
    # write_config's base potential sets the gaussian width: a key of another
    # kind, which the top_hat and custom_table specs below must unset

    def test_top_hat_spec(self, tmp_path):
        path = write_config(
            tmp_path,
            potential={"kind": "top_hat", "kappa": 0.1, "radius": 0.8,
                       "allow_non_posdef": True, "width": None},
        )
        cfg = parse_config(path)
        v = potential_from_spec(cfg.spec.potential, 4, 2, 0.5)
        assert v.kind == "top_hat" and not positive_definite(v)

    def test_custom_table_spec(self, tmp_path):
        table = tmp_path / "profile.txt"
        table.write_text("0.0 1.0\n1.0 0.0\n")
        path = write_config(
            tmp_path,
            potential={"kind": "custom_table", "kappa": 0.2,
                       "table_path": str(table), "width": None},
        )
        cfg = parse_config(path)
        v = potential_from_spec(cfg.spec.potential, 4, 2, 0.5)
        assert v.kind == "custom_table" and v.v_at_zero > 0.0

    def test_echo_holds_the_kind_parameters(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, potential={"kind": "top_hat", "width": None}))
        assert cfg.to_dict()["potential"] == {
            "kind": "top_hat", "kappa": 0.0, "radius": 1.0, "allow_non_posdef": False,
            "width": None, "truncation": None, "table_path": None,
        }
        assert parse_config().data["potential"]["width"] == 1.0

    @pytest.mark.parametrize("command", ["sample", "spectrum", "hartree", "ensemble"])
    def test_key_of_another_kind_is_a_config_error(self, tmp_path, capsys, command):
        # radius belongs to top_hat: the default gaussian must not drop it
        argv = [command, "--set", "potential.radius=3", "-o", str(tmp_path / "run")]
        assert main(argv) == EXIT_USAGE
        (err,) = capsys.readouterr().err.splitlines()
        assert err == ("error: potential parameters ['radius'] do not apply "
                       "to kind 'gaussian'")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict JSON parsers do."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def parse_json_outputs(out):
    """Every JSON and JSON Lines file in a run directory, parsed strictly."""
    parsed = {}
    for path in sorted(out.glob("*.json")):
        parsed[path.name] = strict_json(path.read_text())
    for path in sorted(out.glob("*.jsonl")):
        parsed[path.name] = [strict_json(line) for line in path.read_text().splitlines()]
    return parsed


# each subcommand's argv after its name, and the JSON files it writes
# besides config_echo.json
JSON_WRITERS = {
    "sample": ([], {"realization.klvac.json"}),
    "spectrum": ([], {"phi1.kleig.json", "phi2.kleig.json"}),
    "hartree": ([], {"hartree.jsonl"}),
    "certify": (["--with-oracle", "--set", "disorder.N=2", "--set", "disorder.rho=0.125"],
                {"certificate.json"}),
    "oracle": ([], {"oracle.json"}),
    "ensemble": ([], {"records.jsonl", "summary.json"}),
    "sweep": (["--set", "ensemble.N_values=[16,64,256]"], {"sweep.json"}),
}


class TestStrictJsonOutputs:
    def test_every_command_is_covered(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(JSON_WRITERS) == set(sub.choices)

    @pytest.mark.parametrize("command", JSON_WRITERS)
    def test_every_json_file_parses_strictly(self, tmp_path, command):
        flags, written = JSON_WRITERS[command]
        path = write_config(tmp_path, disorder={"nu": 0.3}, potential={"kappa": 0.3},
                            ensemble={"seeds": 2})
        out = tmp_path / "run"
        assert main([command, "-c", str(path), "-o", str(out)] + flags) == EXIT_OK
        parsed = parse_json_outputs(out)
        assert set(parsed) == written | {"config_echo.json"}

    def test_sweep_writes_a_missing_median_as_null(self, tmp_path, monkeypatch):
        # N=16 has no record with a depletion bound, N=256 no successful one
        def records(spec, N):
            rec = {"error": None, "lambda1": 1.0 / N, "lambda2": 2.0 / N,
                   "certificate": {"depletion_bound": 0.25 if N == 64 else None}}
            return [dict(rec, error="failed")] if N == 256 else [rec]

        monkeypatch.setattr(ensemble, "run_ensemble", records)
        path = write_config(tmp_path, ensemble={"N_values": [16, 64, 256]})
        out = tmp_path / "run"
        assert main(["sweep", "-c", str(path), "-o", str(out)]) == EXIT_OK
        rows = parse_json_outputs(out)["sweep.json"]["rows"]
        assert [row["median_depletion_bound"] for row in rows] == [None, 0.25, None]
        assert rows[2]["median_lambda1"] is None and rows[2]["median_gap"] is None
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        assert header.endswith(",median_depletion_bound")
        assert lines[0].endswith(",0,") and lines[2] == "256,0,1,,,0,"

    def test_ensemble_with_every_record_failed_writes_null_frequencies(
            self, tmp_path, monkeypatch):
        def no_hartree(*args, **kwargs):
            raise KacLabError("forced failure")

        monkeypatch.setattr(ensemble, "minimize_hartree", no_hartree)
        path = write_config(tmp_path, ensemble={"seeds": 3})
        out = tmp_path / "run"
        assert main(["ensemble", "-c", str(path), "-o", str(out)]) == EXIT_OK
        parsed = parse_json_outputs(out)
        assert [rec["error"]["stage"] for rec in parsed["records.jsonl"]] == ["hartree"] * 3
        summary = parsed["summary.json"]
        assert (summary["n_ok"], summary["n_failed"]) == (0, 3)
        for event in ("volume_event", "gap_event"):
            assert summary[event]["frequency"] is None
            assert summary[event]["lo"] is summary[event]["hi"] is None
