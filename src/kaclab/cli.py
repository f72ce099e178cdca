"""Command line entry point.

build_parser is the one command table: each subcommand's parser carries its
handler, and a command's own flags reach that handler as keyword arguments.
Runs are driven by a JSON config file with dotted --set overrides, and
parse_config checks every value, each number by the one rule
errors.check_number and a custom_table by reading it, before the run
directory exists, and main loads an oracle --realization dump before it too.
What depends on the subcommand is checked when it runs: a sweep's three N
values, and a built potential's N >= 2 and top_hat's allow_non_posdef=true.
Every run directory receives the fully resolved config echo and a version
stamp so results stay auditable.  The config's log_level sets the level of
the "kaclab" logger, whose records go to stderr.  Exit codes: 0 success, 1
asserted-certificate failure, 2 usage error, 3 solver failure.
"""

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, storage
from .certify import build_certificate, certificate_assertions
from .disorder import DisorderConfig, build_realization, volume_fraction
from .ensemble import (
    EnsembleSpec,
    PipelineResult,
    estimate_event_probabilities,
    hartree_record,
    run_ensemble,
    run_pipeline,
    scaling_sweep,
)
from .errors import BasisSizeError, ConfigError, KacLabError, SolverError, check_number
from .interaction import POTENTIAL_PARAMS, potential_from_spec, potential_params
from .laplace import assemble_laplacian, ground_state_component, lowest_eigenpairs
from .manybody import (BASIS_CAP, build_manybody_hamiltonian, condensate_occupation, ground_state,
                       one_body_density_matrix)

EXIT_OK = 0
EXIT_CERT = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

# EnsembleSpec's field defaults are the one source of the solver and ensemble defaults
_SPEC = {
    f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
    for f in dataclasses.fields(EnsembleSpec)
    if f.name not in ("base", "potential")
}
_DEFAULTS = {
    "disorder": {"d": 2, "rho": 1.0, "N": 64, "nu": 0.1, "r": 0.5, "h": 0.25, "seed": 0},
    # every kind's parameters, unset; RunConfig fills in the chosen kind's defaults
    "potential": {"kind": "gaussian", "kappa": 0.0,
                  **{key: None for params in POTENTIAL_PARAMS.values() for key in params}},
    "solver": {key: _SPEC[key] for key in ("el_tol", "eig_tol")},
    "ensemble": {key: _SPEC[key] for key in
                 ("seeds", "master_seed", "N_values", "eta", "sigma_ref", "workers")},
    "oracle": {"N": 2, "basis_cap": BASIS_CAP},
    "output_dir": "runs/out",
    "log_level": "INFO",
}


class RunConfig:
    """Validated, fully resolved run configuration; the commands read the
    disorder, solver, ensemble and potential sections through disorder and spec."""

    def __init__(self, data: dict):
        self.data = data
        if data["log_level"] not in LOG_LEVELS:
            raise ConfigError(f"log_level={data['log_level']!r} must be one of "
                              f"{', '.join(LOG_LEVELS)}")
        # a bad kind or value fails every subcommand; the echo shows the
        # chosen kind's parameters, defaults filled in
        pot = data["potential"]
        chosen = potential_params(pot["kind"], pot["kappa"],
                                  {k: v for k, v in pot.items()
                                   if k not in ("kind", "kappa") and v is not None})
        pot.update((key, val) for key, val in chosen.items() if key in pot)
        for key, low in (("N", 2), ("basis_cap", 1)):
            check_number(f"oracle.{key}", data["oracle"][key], low, integer=True)
        self.disorder = DisorderConfig(**data["disorder"])
        # the solver and ensemble sections hold EnsembleSpec fields by name
        base = {key: val for key, val in data["disorder"].items() if key != "seed"}
        self.spec = EnsembleSpec(base=base, potential=dict(pot),
                                 **data["solver"], **data["ensemble"])

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.data))


def _merge_section(defaults, given, path):
    if not isinstance(given, dict):
        raise ConfigError(f"section '{path}' must be an object")
    out = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key '{path}.{key}'")
        out[key] = value
    return out


def parse_config(path=None, overrides=()) -> RunConfig:
    """Load, default-fill and validate a run config; flags override the file."""
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")

    merged = {}
    for section, defaults in _DEFAULTS.items():
        if isinstance(defaults, dict):
            merged[section] = _merge_section(defaults, data.get(section, {}), section)
        else:
            merged[section] = data.get(section, defaults)
    for key in data:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key.path=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        node = merged
        for p in parts[:-1]:
            if p not in node or not isinstance(node[p], dict):
                raise ConfigError(f"unknown config key '{dotted}'")
            node = node[p]
        leaf = parts[-1]
        if leaf not in node:
            raise ConfigError(f"unknown config key '{dotted}'")
        if isinstance(node[leaf], dict):
            raise ConfigError(f"override '{dotted}' names a section, not a key")
        try:
            node[leaf] = json.loads(raw)
        except json.JSONDecodeError:
            node[leaf] = raw  # bare strings allowed unquoted

    return RunConfig(merged)


def _prepare_run_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.data["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(json.dumps(cfg.to_dict(), sort_keys=True, indent=1))
    (out / "version.txt").write_text(f"kaclab {__version__}\n")
    return out


def cmd_sample(cfg: RunConfig, out: Path) -> int:
    real = build_realization(cfg.disorder)
    storage.save_realization(real, out / "realization.klvac")
    eta = cfg.spec.eta
    fraction, in_event, _ = volume_fraction(real, eta)
    print(f"K={real.K} vacant={real.n_vacant} fraction={fraction:.6f} "
          f"volume_event={in_event} (eta={eta})")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    real = build_realization(cfg.disorder)
    pair = lowest_eigenpairs(assemble_laplacian(real), count=2, tol=cfg.spec.eig_tol)
    sel = ground_state_component(real, pair)
    component = "multiple" if sel.multiple else sel.component
    meta = {
        "eigenvalues": [pair.lambda1, pair.lambda2],
        "residuals": [pair.residual1, pair.residual2],
        "component": component,
    }
    storage.save_field(pair.phi1, real.h, out / "phi1.kleig", {**meta, "index": 1})
    if pair.phi2 is not None:
        storage.save_field(pair.phi2, real.h, out / "phi2.kleig", {**meta, "index": 2})
    print(f"lambda1={pair.lambda1:.9g} lambda2={pair.lambda2} "
          f"component={component} mass_outside={sel.mass_outside:.3e}")
    return EXIT_OK


def cmd_hartree(cfg: RunConfig, out: Path, dump_state=False) -> int:
    res = run_pipeline(PipelineResult(cfg.disorder), cfg.spec.potential,
                       eig_tol=cfg.spec.eig_tol, el_tol=cfg.spec.el_tol)
    hs = res.hartree
    rec = hartree_record(hs)
    with open(out / "hartree.jsonl", "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")
    if dump_state:
        storage.save_field(hs.u, res.real.h, out / "hartree_u.kleig",
                           {"energy": hs.energy, "component": hs.component})
    print(json.dumps(rec, sort_keys=True))
    return EXIT_OK


def _exact_oracle(cfg: RunConfig, real, v, N: int):
    """Exact N-boson ground state under the oracle basis cap, and its rho1."""
    gs = ground_state(build_manybody_hamiltonian(real, v, N,
                                                 cap=cfg.data["oracle"]["basis_cap"]))
    return gs, one_body_density_matrix(gs)


def cmd_certify(cfg: RunConfig, out: Path, with_oracle=False) -> int:
    res = run_pipeline(PipelineResult(cfg.disorder), cfg.spec.potential,
                       eig_tol=cfg.spec.eig_tol, el_tol=cfg.spec.el_tol)
    config, real, pair, v, hs = res.config, res.real, res.pair, res.v, res.hartree
    oracle = None
    if with_oracle:
        # the exact check only makes sense for the same N-particle problem,
        # so the config N must be small enough for the basis cap
        gs, rho1 = _exact_oracle(cfg, real, v, config.N)
        n_cond = condensate_occupation(rho1, hs.u, real, config.N)
        oracle = {"E_qm": gs.E_qm, "n_condensate": n_cond}
    cert = build_certificate(real, pair, v, hs,
                             eta=cfg.spec.eta, sigma_ref=cfg.spec.sigma_ref, oracle=oracle)
    (out / "certificate.json").write_text(cert.to_json())
    budget = cfg.spec.eig_tol * max(abs(pair.lambda2 or pair.lambda1), 1.0)
    checks = certificate_assertions(cert, eig_tol_abs=budget)
    for name, ok, margin in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} margin={margin:.3e}")
    if any(not ok for _, ok, _ in checks):
        return EXIT_CERT
    return EXIT_OK


def _load_realization(path):
    """The KLVAC1 dump at path; one that is missing or does not load is a ConfigError."""
    try:
        return storage.load_realization(path)
    except (OSError, ValueError) as exc:  # the dump path is user input
        raise ConfigError(f"cannot load realization {path}: {exc}")


def cmd_oracle(cfg: RunConfig, out: Path, realization=None, dump_state=False) -> int:
    """realization is the loaded --realization dump, if given; else the config samples one."""
    real = realization if realization is not None else build_realization(cfg.disorder)
    N = cfg.data["oracle"]["N"]
    v = potential_from_spec(cfg.spec.potential, N, real.d, real.h)
    gs, rho1 = _exact_oracle(cfg, real, v, N)
    summary = {
        "N": N,
        "site_count": gs.site_count,
        "basis_dim": gs.basis_dim,
        "E_qm": gs.E_qm,
        "E_per_particle": gs.E_qm / N,
        "rho1_trace": float(np.trace(rho1)),
    }
    (out / "oracle.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    if dump_state:
        np.save(out / "oracle_psi.npy", gs.psi)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_ensemble(cfg: RunConfig, out: Path) -> int:
    records = run_ensemble(cfg.spec)
    with open(out / "records.jsonl", "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    summary = estimate_event_probabilities(records)
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    result = scaling_sweep(cfg.spec)
    (out / "sweep.json").write_text(json.dumps(result, sort_keys=True, indent=1))
    cols = ["N", "n_ok", "n_failed", "median_lambda1", "median_gap", "n_with_bound",
            "median_depletion_bound"]
    lines = [",".join(cols)]
    for row in result["rows"]:
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in cols))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(json.dumps(result["fits"], sort_keys=True))
    return EXIT_OK


_COMMON = ("command", "handler", "config", "overrides", "output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaclab",
        description="Disordered Bose gas laboratory: vacancy geometry, "
                    "Dirichlet spectra, Hartree condensates, certificates.",
    )
    parser.add_argument("--version", action="version", version=f"kaclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("-c", "--config", default=None, help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override a config entry")
        p.add_argument("-o", "--output-dir", default=None)
        return p

    command("sample", cmd_sample, "sample a disorder realization and dump it")
    command("spectrum", cmd_spectrum, "two lowest Dirichlet eigenpairs on the vacancy set")
    p = command("hartree", cmd_hartree, "minimize the Hartree energy on the host component")
    p.add_argument("--dump-state", action="store_true")
    p = command("certify", cmd_certify, "run the pipeline and evaluate all certificates")
    p.add_argument("--with-oracle", action="store_true",
                   help="also run the exact diagonalization checks")
    p = command("oracle", cmd_oracle, "exact few-boson diagonalization on a small realization")
    p.add_argument("--realization", default=None, help="path to a KLVAC1 dump to reuse")
    p.add_argument("--dump-state", action="store_true")
    command("ensemble", cmd_ensemble, "Monte Carlo over seeds with event frequencies")
    command("sweep", cmd_sweep, "N sweep with medians and scaling fits")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # what the common options leave is the command's own flags
    flags = {k: v for k, v in vars(args).items() if k not in _COMMON}
    try:
        cfg = parse_config(args.config, args.overrides)
        if args.output_dir is not None:
            cfg.data["output_dir"] = args.output_dir
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("kaclab").setLevel(cfg.data["log_level"])
        if flags.get("realization") is not None:  # a dump is input, checked like the config
            flags["realization"] = _load_realization(flags["realization"])
        return args.handler(cfg, _prepare_run_dir(cfg), **flags)
    except (ConfigError, BasisSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except KacLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERT


if __name__ == "__main__":
    sys.exit(main())
