"""CLI: config parsing, the command table, exit codes."""

import argparse
import dataclasses
import json
import logging
from pathlib import Path

import numpy as np
import pytest

import kaclab.cli as cli_mod
from kaclab import DisorderConfig, EnsembleSpec, ensemble
from kaclab.cli import (
    EXIT_CERT, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, build_parser, main, parse_config,
)
from kaclab.errors import ConfigError, KacLabError
from kaclab.interaction import potential_from_spec
from kaclab.storage import load_array, load_field, load_realization, save_array

from conftest import arpack_no_convergence, positive_definite

DATA = Path(__file__).parent / "data"
# a custom_table profile with a negative value, and an empty file
NEGATIVE_TABLE = DATA / "table_negative.txt"
EMPTY_TABLE = DATA / "table_empty.txt"


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

    def test_last_set_wins_and_beats_the_file(self, tmp_path):
        path = write_config(tmp_path)  # disorder.seed=1
        assert parse_config(path, ["disorder.seed=5"]).disorder.seed == 5
        assert parse_config(path, ["disorder.seed=5", "disorder.seed=9"]).disorder.seed == 9
        # an object on a section merges key by key, like the file's section
        cfg = parse_config(path, ['disorder={"N": 32, "seed": 4}'])
        assert (cfg.disorder.N, cfg.disorder.seed, cfg.disorder.h) == (32, 4, 0.5)

    @pytest.mark.parametrize("layered, sets, final", [
        ({"disorder": {"N": {}}}, ["disorder.N=16"], {"disorder": {"N": 16}}),
        ({}, ['disorder.N={"a": 1}', "disorder.N=16"], {"disorder": {"N": 16}}),
        ({"output_dir": {}}, ["output_dir=RUN"], {}),
    ], ids=["file_object_then_set", "set_object_then_set", "output_dir_object_then_set"])
    def test_a_leaf_set_to_an_object_stays_a_leaf(self, tmp_path, capsys, layered, sets, final):
        # a key is a section or a leaf by the defaults' shape: a later --set
        # replaces an object an earlier layer put on a leaf, and the command
        # runs as one file holding only the final values does
        run = tmp_path / "run"
        echo = run / "config_echo.json"
        outcomes = []
        for data, given in ((final, []), (layered, sets)):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"output_dir": str(run), **data}))
            argv = [arg for item in given for arg in ("--set", item.replace("RUN", str(run)))]
            code = main(["sample", "-c", str(path), *argv])
            outcomes.append((code, capsys.readouterr(), echo.read_text()))
            echo.unlink()
        assert outcomes[0][0] == EXIT_OK
        assert outcomes[1] == outcomes[0]


# one valid and one invalid value for every leaf key, and the sections the
# key needs beside it (a top_hat or custom_table parameter needs its kind)
TOP_HAT = {"potential": {"kind": "top_hat"}}
MERGE_CASES = {
    "disorder.d": ({}, 3, 2.5),
    "disorder.rho": ({}, 2.0, -1.0),
    "disorder.N": ({}, 32, "16"),
    "disorder.nu": ({}, 0.2, "abc"),
    "disorder.r": ({}, 0.7, 0.2),  # h=0.25 must stay below r
    "disorder.h": ({}, 0.125, 0.0),
    "disorder.seed": ({}, 7, -1),
    "potential.kind": ({}, "top_hat", "foo"),
    "potential.kappa": ({}, 0.5, -1),
    "potential.width": ({}, 0.7, 0),
    "potential.truncation": ({}, 4.0, "x"),
    "potential.radius": (TOP_HAT, 2.0, -1),
    "potential.allow_non_posdef": (TOP_HAT, True, "no"),
    "potential.table_path": ({"potential": {"kind": "custom_table"}}, "TABLE",
                             str(NEGATIVE_TABLE)),
    "solver.el_tol": ({}, 1e-7, 0),
    "solver.eig_tol": ({}, 1e-9, "x"),
    "ensemble.seeds": ({}, [1, 2], [3, 3]),
    "ensemble.master_seed": ({}, 5, -1),
    "ensemble.N_values": ({}, [8, 16, 32], [16, 8]),
    "ensemble.eta": ({}, 0.2, 0),
    "ensemble.sigma_ref": ({}, 1.5, "x"),
    "ensemble.workers": ({}, 2, 0),
    "oracle.N": ({}, 3, 1),
    "oracle.basis_cap": ({}, 100, 0),
    "output_dir": ({}, "runs/x", ""),
    "log_level": ({}, "DEBUG", "LOUD"),
}


def leaf_keys(section, prefix=""):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def spec_state(cfg):
    """The spec as plain data: a read custom table as a list."""
    spec = dataclasses.asdict(cfg.spec)
    table = spec["potential"].pop("table", None)
    return spec, None if table is None else table.tolist()


class TestSetMergesLikeTheFile:
    def test_every_leaf_key_has_a_case(self):
        assert set(MERGE_CASES) == set(leaf_keys(cli_mod._DEFAULTS))

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    @pytest.mark.parametrize("key", sorted(MERGE_CASES))
    def test_set_equals_the_one_key_file(self, tmp_path, key, valid):
        base, good, bad = MERGE_CASES[key]
        value = good if valid else bad
        if value == "TABLE":
            table = tmp_path / "table.txt"
            table.write_text("0 1\n1 0.5\n2 0\n")
            value = str(table)
        *section, leaf = key.split(".")
        data = json.loads(json.dumps(base))
        (data.setdefault(section[0], {}) if section else data)[leaf] = value
        via_file = tmp_path / "file.json"
        via_file.write_text(json.dumps(data))
        via_set = tmp_path / "base.json"
        via_set.write_text(json.dumps(base))
        argv = [f"{key}={json.dumps(value)}"]
        if valid:
            a, b = parse_config(via_file), parse_config(via_set, argv)
            echo = a.to_dict()
            assert (echo[section[0]] if section else echo)[leaf] == value
            assert b.to_dict() == echo
            assert spec_state(b) == spec_state(a)
        else:
            with pytest.raises(ConfigError) as from_file:
                parse_config(via_file)
            with pytest.raises(ConfigError) as from_set:
                parse_config(via_set, argv)
            assert str(from_set.value) == str(from_file.value)


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
        assert (out / "realization.npy").exists()
        assert (out / "realization.npy.json").exists()
        assert (out / "config_echo.json").exists()
        assert "kaclab" in (out / "version.txt").read_text()
        assert "K=1" in capsys.readouterr().out

    def test_spectrum_dumps_eigenfunctions(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["spectrum", "-c", str(path), "-o", str(out)]) == EXIT_OK
        grid, h, meta = load_field(out / "phi1.npy")
        assert grid.shape == (7, 7)
        assert meta["index"] == 1
        assert len(meta["eigenvalues"]) == 2

    def test_spectrum_is_the_pipeline_spectrum(self, tmp_path):
        # d=3 N=128, 1,664 nodes: above the crossover the pipeline asks ARPACK
        # for lambda3, which moves lambda1, lambda2 in the last bits, so the
        # command solves with the pipeline's count and prints the record's
        disorder = {"d": 3, "rho": 1.0, "N": 128, "nu": 0.05, "r": 0.5, "h": 0.4,
                    "seed": 7778828159576237216}
        out = tmp_path / "run"
        path = write_config(tmp_path, disorder=disorder)
        assert main(["spectrum", "-c", str(path), "-o", str(out)]) == EXIT_OK
        record = ensemble.run_realization(DisorderConfig(**disorder),
                                          {"kind": "gaussian", "kappa": 0.0, "width": 0.5})
        assert record["n_vacant"] == 1664
        meta = load_field(out / "phi1.npy")[2]
        assert meta["eigenvalues"] == [record["lambda1"], record["lambda2"]]

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

    def test_certify_records_product_overlap(self, tmp_path):
        # <u^(x N), psi>^2 beside the observed depletion; 1 when v = 0, where
        # psi is the product of u itself; no oracle, no field
        for kappa, low, high in ((0.0, 1.0 - 1e-12, 1.0 + 1e-12), (0.3, 0.999, 1.0)):
            path = write_config(tmp_path, disorder={"N": 2, "rho": 0.125},
                                potential={"kappa": kappa})
            out = tmp_path / f"run{kappa}"
            assert main(["certify", "-c", str(path), "-o", str(out),
                         "--with-oracle"]) == EXIT_OK
            cert = json.loads((out / "certificate.json").read_text())
            assert isinstance(cert["product_overlap"], float)
            assert low <= cert["product_overlap"] <= high
            assert 1.0 - cert["product_overlap"] >= cert["depletion_observed"] - 1e-12
        assert main(["certify", "-c", str(path), "-o", str(tmp_path / "plain")]) == EXIT_OK
        cert = json.loads((tmp_path / "plain" / "certificate.json").read_text())
        assert "product_overlap" not in cert and cert["depletion_observed"] is None

    def test_certify_writes_the_records_certificate(self, tmp_path):
        # the CLI and the records build one certificate: certificate.json is
        # the compact JSON of run_realization's certificate for the same config
        path = write_config(tmp_path, disorder={"nu": 0.2}, potential={"kappa": 0.3},
                            ensemble={"sigma_ref": 0.5})
        out = tmp_path / "run"
        assert main(["certify", "-c", str(path), "-o", str(out)]) == EXIT_OK
        cfg = parse_config(path)
        spec = cfg.spec
        rec = ensemble.run_realization(cfg.disorder, spec.potential, eta=spec.eta,
                                       sigma_ref=spec.sigma_ref, eig_tol=spec.eig_tol,
                                       el_tol=spec.el_tol)
        assert rec["error"] is None
        assert (out / "certificate.json").read_bytes() == json.dumps(
            rec["certificate"], sort_keys=True, separators=(",", ":")).encode()

    def test_hartree_appends_record(self, tmp_path):
        path = write_config(tmp_path, potential={"kappa": 0.3})
        out = tmp_path / "run"
        assert main(["hartree", "-c", str(path), "-o", str(out),
                     "--dump-state"]) == EXIT_OK
        lines = (out / "hartree.jsonl").read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert set(rec) == {"component", "energy", "e1", "e2", "shift",
                            "iterations", "el_residual"}
        grid, _, _ = load_field(out / "hartree_u.npy")
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
                     "--realization", str(out / "realization.npy"),
                     "--set", "oracle.N=2"])
        assert code == EXIT_OK
        summary = json.loads((out / "oracle.json").read_text())
        assert summary["basis_dim"] == 49 * 50 // 2
        assert summary["rho1_trace"] == pytest.approx(1.0, abs=1e-12)
        # the dumped realization gives the oracle of the config's own sample
        direct = tmp_path / "direct"
        assert main(["oracle", "-c", str(path), "-o", str(direct),
                     "--set", "oracle.N=2"]) == EXIT_OK
        assert (out / "oracle.json").read_bytes() == (direct / "oracle.json").read_bytes()

    @pytest.mark.parametrize("damage, fault", [
        pytest.param("missing", "No such file", id="missing"),
        pytest.param("bad_magic", "sha256 of it and its sidecar is", id="bad_magic"),
        pytest.param("sidecar_without_config", "unknown keys [] and lacks ['N', 'd', 'h',",
                     id="sidecar_without_config"),
        pytest.param("sidecar_not_an_object", "sidecar is not an object",
                     id="sidecar_not_an_object"),
        pytest.param("config_unknown_key", "unknown keys ['colour'] and lacks []",
                     id="config_unknown_key"),
        pytest.param("sidecar_without_sha256", "the sidecar's None", id="sidecar_without_sha256"),
        pytest.param("klvac1", "dump format is 'KLVAC1'", id="klvac1"),
    ])
    def test_unreadable_realization_is_one_error_line(self, tmp_path, capsys, damage, fault):
        path = write_config(tmp_path)
        dump = tmp_path / "dump" / "realization.npy"
        sidecar_path = tmp_path / "dump" / "realization.npy.json"
        assert main(["sample", "-c", str(path), "-o", str(dump.parent)]) == EXIT_OK
        sidecar = json.loads(sidecar_path.read_text())
        if damage == "missing":
            dump.unlink()
        elif damage == "bad_magic":
            dump.write_bytes(b"XXXXXX" + dump.read_bytes()[6:])
        elif damage == "config_unknown_key":
            # written by the storage module, so the digest holds and the config is refused
            save_array(np.load(dump), dump, {"config": {**sidecar["config"], "colour": 1}})
            sidecar = json.loads(sidecar_path.read_text())
        elif damage == "sidecar_without_config":
            save_array(np.load(dump), dump)
            sidecar = json.loads(sidecar_path.read_text())
        elif damage == "sidecar_without_sha256":
            del sidecar["sha256"]
        elif damage == "klvac1":
            # an earlier format: a magic header, int32 labels after the mask, no sha256
            labels = load_realization(dump).labels.astype("<i4").tobytes()
            dump.write_bytes(b"KLVAC1" + dump.read_bytes()[6:] + labels)
            sidecar["format"] = "KLVAC1"
            del sidecar["sha256"]
        else:
            sidecar = [1, 2]
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
        psi = np.load(out / "oracle_psi.npy", allow_pickle=False)
        assert psi.shape == (summary["basis_dim"],)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        # the storage module's digest guards psi and its sidecar
        loaded, sidecar = load_array(out / "oracle_psi.npy")
        assert np.array_equal(loaded, psi)
        assert {key: sidecar[key] for key in ("N", "basis_dim", "E_qm")} == {
            key: summary[key] for key in ("N", "basis_dim", "E_qm")}
        assert set(sidecar) == {"N", "basis_dim", "E_qm", "format", "sha256"}

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
        ["sample", "--set", "potential.kind=custom_table",
         "--set", f"potential.table_path={EMPTY_TABLE}"],
        ["ensemble", "--set", "ensemble.N_values=[1,2,3]"],
        ["sample", "--set", "output_dir=123"],
        ["sample", "--set", "output_dir=null"],
        ["sample", "--set", 'output_dir=""'],
        ["ensemble", "--set", "ensemble.seeds=[3,3,3,4]"],
        ["sample", "-c", str(DATA / "config_section_not_object.json")],
        ["sample", "-c", str(DATA / "config_not_json.json")],
        ["sample", "-c", str(DATA / "config_top_level_array.json")],
        ["sample", "--set", "disorder.d"],
        ["sample", "--set", "disorder.d.x=1"],
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
            "table_empty", "N_values_below_two", "output_dir_number", "output_dir_null",
            "output_dir_empty", "seeds_repeated", "section_not_object", "file_not_json",
            "top_level_array", "override_without_value", "override_below_a_key"])
    def test_config_error_is_one_error_line(self, tmp_path, capsys, request, argv):
        assert main(argv + ["-o", str(tmp_path / "run")]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "run" / "records.jsonl").exists()
        # every value is checked before the run directory is written, less what
        # depends on the subcommand: a sweep's three N values, a built potential's N
        if request.node.callspec.id not in ("sweep_default", "N_below_two"):
            assert not (tmp_path / "run").exists()

    def test_empty_output_dir_flag_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # -o "" would name the working directory, as output_dir="" would
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "-o", ""]) == EXIT_USAGE
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error: output_dir=''")
        assert list(tmp_path.iterdir()) == []

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

    def test_failed_factorization_is_one_solver_line(self, tmp_path, capsys, monkeypatch):
        from kaclab import laplace

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        # 361 nodes: an ARPACK-size spectrum, factorized by SuperLU
        monkeypatch.setattr(laplace, "BAND_MAX_WORK", {})
        monkeypatch.setattr(laplace, "splu", out_of_memory)
        path = write_config(tmp_path, disorder={"N": 64, "h": 0.4})
        assert main(["hartree", "-c", str(path), "-o", str(tmp_path / "run")]) == EXIT_SOLVER
        (err,) = capsys.readouterr().err.splitlines()
        assert err == "solver failure: SuperLU factorization of 361 nodes failed: MemoryError()"

    @pytest.mark.parametrize("command, disorder", [
        ("spectrum", {"N": 64, "h": 0.4}),  # 361 nodes: an ARPACK-size spectrum
        ("oracle", {}),                     # 49 sites, N=2: a Lanczos-size basis
    ])
    def test_arpack_no_convergence_is_one_solver_line(self, tmp_path, capsys, monkeypatch,
                                                       command, disorder):
        from kaclab import laplace, manybody

        if command == "spectrum":
            monkeypatch.setattr(laplace, "eigsh", arpack_no_convergence)
        else:
            # a product budget too small for the basis: the Lanczos run gives up
            monkeypatch.setattr(manybody, "PRODUCT_BUDGET", 3)
        path = write_config(tmp_path, disorder=disorder)
        assert main([command, "-c", str(path), "-o", str(tmp_path / "run")]) == EXIT_SOLVER
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("solver failure: ")
        assert "eigensolver did not converge" in err

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

    @pytest.mark.parametrize("command", ["hartree", "ensemble"])
    def test_custom_table_is_read_once(self, tmp_path, monkeypatch, command):
        # parse_config reads the table; the potential build samples that table
        table = tmp_path / "profile.txt"
        table.write_text("0.0 1.0\n1.0 0.0\n")
        path = write_config(
            tmp_path,
            potential={"kind": "custom_table", "kappa": 0.2,
                       "table_path": str(table), "width": None},
            ensemble={"seeds": 2},
        )
        reads = []
        loadtxt = np.loadtxt

        def counting_loadtxt(fname, *args, **kwargs):
            reads.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        assert main([command, "-c", str(path), "-o", str(tmp_path / "run")]) == EXIT_OK
        assert reads == [str(table)]

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
    "sample": ([], {"realization.npy.json"}),
    "spectrum": ([], {"phi1.npy.json", "phi2.npy.json"}),
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
