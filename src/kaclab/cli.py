"""Command line entry point.

Subcommands: sample, spectrum, hartree, certify, oracle, ensemble, sweep.
Runs are driven by a JSON config file with dotted --set overrides; every run
directory receives the fully resolved config echo and a version stamp so
results stay auditable.  Exit codes: 0 success, 1 asserted-certificate
failure, 2 usage error, 3 solver failure.
"""

import argparse
import dataclasses
import json
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
from .errors import BasisSizeError, ConfigError, KacLabError, SolverError
from .interaction import potential_from_spec
from .laplace import assemble_laplacian, ground_state_component, lowest_eigenpairs
from .manybody import build_manybody_hamiltonian, condensate_occupation, ground_state, one_body_density_matrix

EXIT_OK = 0
EXIT_CERT = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

# EnsembleSpec's field defaults are the one source of the solver and ensemble defaults
_SPEC = {
    f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
    for f in dataclasses.fields(EnsembleSpec)
    if f.name not in ("base", "potential")
}
_DEFAULTS = {
    "disorder": {"d": 2, "rho": 1.0, "N": 64, "nu": 0.1, "r": 0.5, "h": 0.25, "seed": 0},
    "potential": {"kind": "gaussian", "kappa": 0.0, "width": 1.0, "truncation": 8.0,
                  "radius": None, "table_path": None, "allow_non_posdef": None},
    "solver": {key: _SPEC[key] for key in ("el_tol", "eig_tol", "max_iter")},
    "ensemble": {key: _SPEC[key] for key in
                 ("seeds", "master_seed", "N_values", "eta", "sigma_ref", "workers")},
    "oracle": {"N": 2, "basis_cap": 2_000_000},
    "output_dir": "runs/out",
    "log_level": "INFO",
}


class RunConfig:
    """Validated, fully resolved run configuration."""

    def __init__(self, data: dict):
        self.data = data
        # touching the disorder config validates every numeric precondition
        self.disorder_config()

    def disorder_config(self) -> DisorderConfig:
        return DisorderConfig(**self.data["disorder"])

    def potential_spec(self) -> dict:
        return dict(self.data["potential"])

    def ensemble_spec(self) -> EnsembleSpec:
        ens = self.data["ensemble"]
        dis = dict(self.data["disorder"])
        dis.pop("seed", None)
        return EnsembleSpec(
            base=dis,
            potential=self.potential_spec(),
            seeds=ens["seeds"],
            master_seed=ens["master_seed"],
            N_values=list(ens["N_values"]),
            eta=ens["eta"],
            sigma_ref=ens["sigma_ref"],
            eig_tol=self.data["solver"]["eig_tol"],
            el_tol=self.data["solver"]["el_tol"],
            max_iter=self.data["solver"]["max_iter"],
            workers=ens["workers"],
        )

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
    config = cfg.disorder_config()
    real = build_realization(config)
    storage.save_realization(real, out / "realization.klvac")
    fraction, in_event, eta = volume_fraction(real, cfg.data["ensemble"]["eta"])
    print(f"K={real.K} vacant={real.n_vacant} fraction={fraction:.6f} "
          f"volume_event={in_event} (eta={eta})")
    return EXIT_OK


def _nonempty(real):
    """Stop on an empty vacancy set as run_pipeline does (an error: line, exit 1)."""
    if real.K == 0:
        raise KacLabError("empty vacancy set")
    return real


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    real = _nonempty(build_realization(cfg.disorder_config()))
    pair = lowest_eigenpairs(assemble_laplacian(real), count=2,
                             tol=cfg.data["solver"]["eig_tol"])
    sel = ground_state_component(real, pair)
    meta = {
        "eigenvalues": [pair.lambda1, pair.lambda2],
        "residuals": [pair.residual1, pair.residual2],
        "component": pair.component_of_phi1,
    }
    storage.save_field(pair.phi1, real.h, out / "phi1.kleig", {**meta, "index": 1})
    if pair.phi2 is not None:
        storage.save_field(pair.phi2, real.h, out / "phi2.kleig", {**meta, "index": 2})
    print(f"lambda1={pair.lambda1:.9g} lambda2={pair.lambda2} "
          f"component={pair.component_of_phi1} mass_outside={sel.mass_outside:.3e}")
    return EXIT_OK


def cmd_hartree(cfg: RunConfig, out: Path, dump_state=False) -> int:
    res = run_pipeline(PipelineResult(cfg.disorder_config()), cfg.potential_spec(),
                       **cfg.data["solver"])
    hs = res.hartree
    rec = hartree_record(hs)
    with open(out / "hartree.jsonl", "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")
    if dump_state:
        storage.save_field(hs.u, res.real.h, out / "hartree_u.kleig",
                           {"energy": hs.energy, "component": hs.component})
    print(json.dumps(rec, sort_keys=True))
    return EXIT_OK


def cmd_certify(cfg: RunConfig, out: Path, with_oracle=False) -> int:
    res = run_pipeline(PipelineResult(cfg.disorder_config()), cfg.potential_spec(),
                       **cfg.data["solver"])
    config, real, pair, v, hs = res.config, res.real, res.pair, res.v, res.hartree
    oracle = None
    if with_oracle:
        # the exact check only makes sense for the same N-particle problem,
        # so the config N must be small enough for the basis cap
        H = build_manybody_hamiltonian(real, v, config.N,
                                       cap=cfg.data["oracle"]["basis_cap"])
        gs = ground_state(H)
        rho1 = one_body_density_matrix(gs)
        n_cond = condensate_occupation(rho1, hs.u, real, config.N)
        oracle = {"E_qm": gs.E_qm, "n_condensate": n_cond}
    cert = build_certificate(real, pair, v, hs,
                             eta=cfg.data["ensemble"]["eta"],
                             sigma_ref=cfg.data["ensemble"]["sigma_ref"],
                             oracle=oracle)
    (out / "certificate.json").write_text(cert.to_json())
    budget = cfg.data["solver"]["eig_tol"] * max(abs(pair.lambda2 or pair.lambda1), 1.0)
    checks = certificate_assertions(cert, eig_tol_abs=budget)
    for name, ok, margin in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} margin={margin:.3e}")
    if any(not ok for _, ok, _ in checks):
        return EXIT_CERT
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, out: Path, realization=None, dump_state=False) -> int:
    if realization is not None:
        real = _nonempty(storage.load_realization(realization))
        config = real.config
    else:
        config = cfg.disorder_config()
        real = _nonempty(build_realization(config))
    N = cfg.data["oracle"]["N"]
    v = potential_from_spec(cfg.potential_spec(), N, config.d, real.h)
    H = build_manybody_hamiltonian(real, v, N, cap=cfg.data["oracle"]["basis_cap"])
    gs = ground_state(H)
    rho1 = one_body_density_matrix(gs)
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
    spec = cfg.ensemble_spec()
    records = run_ensemble(spec)
    with open(out / "records.jsonl", "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    summary = estimate_event_probabilities(spec, records=records)
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    spec = cfg.ensemble_spec()
    result = scaling_sweep(spec)
    (out / "sweep.json").write_text(json.dumps(result, sort_keys=True, indent=1))
    rows = result["rows"]
    cols = ["N", "n_ok", "n_failed", "median_lambda1", "median_gap",
            "median_depletion_bound"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in cols))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(json.dumps(result["fits"], sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaclab",
        description="Disordered Bose gas laboratory: vacancy geometry, "
                    "Dirichlet spectra, Hartree condensates, certificates.",
    )
    parser.add_argument("--version", action="version", version=f"kaclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("sample", "sample a disorder realization and dump it"),
        ("spectrum", "two lowest Dirichlet eigenpairs on the vacancy set"),
        ("hartree", "minimize the Hartree energy on the host component"),
        ("certify", "run the pipeline and evaluate all certificates"),
        ("oracle", "exact few-boson diagonalization on a small realization"),
        ("ensemble", "Monte Carlo over seeds with event frequencies"),
        ("sweep", "N sweep with medians and scaling fits"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", default=None, help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override a config entry")
        p.add_argument("-o", "--output-dir", default=None)
        if name == "certify":
            p.add_argument("--with-oracle", action="store_true",
                           help="also run the exact diagonalization checks")
        if name == "oracle":
            p.add_argument("--realization", default=None,
                           help="path to a KLVAC1 dump to reuse")
            p.add_argument("--dump-state", action="store_true")
        if name == "hartree":
            p.add_argument("--dump-state", action="store_true")
    return parser


def dispatch(command: str, cfg: RunConfig, **kwargs) -> int:
    out = _prepare_run_dir(cfg)
    handlers = {
        "sample": cmd_sample,
        "spectrum": cmd_spectrum,
        "hartree": cmd_hartree,
        "certify": cmd_certify,
        "oracle": cmd_oracle,
        "ensemble": cmd_ensemble,
        "sweep": cmd_sweep,
    }
    return handlers[command](cfg, out, **kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        if args.output_dir is not None:
            cfg.data["output_dir"] = args.output_dir
        kwargs = {}
        if args.command == "certify":
            kwargs["with_oracle"] = args.with_oracle
        if args.command == "oracle":
            kwargs["realization"] = args.realization
            kwargs["dump_state"] = args.dump_state
        if args.command == "hartree":
            kwargs["dump_state"] = args.dump_state
        return dispatch(args.command, cfg, **kwargs)
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
