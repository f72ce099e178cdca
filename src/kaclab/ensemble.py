"""Monte Carlo driver over disorder realizations and N-sweeps.

run_pipeline is the one staged pipeline; run_realization formats its result
as a record, and the CLI runs it too.

Seeds derive from a master seed through a splittable counter scheme, so
ensembles are reproducible and order-free: records are aggregated sorted by
seed and per-stage failures are counted and reported rather than silently
dropped (silent exclusion would bias the frequencies).  The summaries read
their records alone, and a statistic with no data is None.

Everything here estimates finite-N empirical frequencies and trends; the
limiting statements these frequencies shadow are out of reach at desk scale
and all sweeps are labeled exploratory.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import blas
from .certify import build_certificate
from .disorder import ETA, DisorderConfig, DisorderRealization, build_realization, volume_fraction
from .errors import ConfigError, KacLabError, check_number
from .hartree import EL_TOL, HartreeSolution, minimize_hartree, reuses_laplacian_factor
from .interaction import InteractionPotential, potential_from_spec
from .laplace import (
    EIG_TOL,
    ComponentSelection,
    SpectralPair,
    assemble_laplacian,
    ground_state_component,
    lowest_eigenpairs,
)

RECORD_SCHEMA_VERSION = 3
WILSON_Z = 1.959963984540054  # the standard normal's 97.5% quantile: a 95% interval


@dataclass
class EnsembleSpec:
    """Ensemble parameters: a seedless base config plus the sweep axes."""

    base: dict                      # DisorderConfig fields without seed
    potential: dict                 # build_interaction spec (kind, kappa, ...)
    seeds: object = 30              # count or explicit list
    master_seed: int = 0
    N_values: list = field(default_factory=list)
    eta: float = ETA
    sigma_ref: Optional[float] = None
    eig_tol: float = EIG_TOL
    el_tol: float = EL_TOL
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.seeds, list):
            check_number("seeds", self.seeds, 1, integer=True)
        elif not self.seeds:
            raise ConfigError("seeds=[] must be a positive integer or a non-empty list")
        else:
            first = {}  # each seed's first index: one realization would count as several
            for i, seed in enumerate(self.seeds):
                check_number(f"seeds[{i}]", seed, 0, integer=True)
                if first.setdefault(seed, i) != i:
                    raise ConfigError(f"seeds[{i}]={seed} repeats an earlier seed, "
                                      f"seeds[{first[seed]}]")
        check_number("master_seed", self.master_seed, 0, integer=True)
        if not isinstance(self.N_values, list):
            raise ConfigError(f"N_values={self.N_values!r} must be a list of integers")
        for i, N in enumerate(self.N_values):
            check_number(f"N_values[{i}]", N, 2, integer=True)
        if any(b <= a for a, b in zip(self.N_values, self.N_values[1:])):
            raise ConfigError("N_values must be strictly increasing")
        for name in ("eig_tol", "el_tol", "eta", "sigma_ref"):
            if name != "sigma_ref" or self.sigma_ref is not None:  # sigma_ref may be None
                check_number(name, getattr(self, name), 0, above=True)
        check_number("workers", self.workers, 1, integer=True)

    def seed_list(self) -> list:
        if isinstance(self.seeds, list):
            return [int(s) for s in self.seeds]
        return derive_seeds(self.master_seed, self.seeds)


def derive_seeds(master_seed: int, count: int) -> list:
    """Splittable per-realization seeds from one master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(count)]


@dataclass
class PipelineResult:
    """One realization carried through the pipeline, filled stage by stage.

    stage names the stage that is running; when a stage raises, it names the
    failing stage and the fields of the earlier stages stay filled.
    """

    config: DisorderConfig
    stage: str = "disorder"
    real: Optional[DisorderRealization] = None
    pair: Optional[SpectralPair] = None
    selection: Optional[ComponentSelection] = None
    v: Optional[InteractionPotential] = None
    hartree: Optional[HartreeSolution] = None


def dirichlet_spectrum(real, eig_tol: float = EIG_TOL) -> SpectralPair:
    """The Laplacian's pair as the pipeline and the CLI solve it: lambda3 only where asked for.

    BLAS runs on one thread, as lowest_eigenpairs runs it.
    """
    count = 3 if reuses_laplacian_factor(real.d, real.n_vacant) else 2
    return lowest_eigenpairs(assemble_laplacian(real), count=count, tol=eig_tol)


@blas.one_thread()
def run_pipeline(
    result: PipelineResult,
    potential,
    eig_tol: float = EIG_TOL,
    el_tol: float = EL_TOL,
) -> PipelineResult:
    """potential -> disorder -> spectrum -> host component -> Hartree.

    potential is a spec dict, built first so that a bad spec fails before any
    solve, or an InteractionPotential built for config's N, d and spacing; one
    built for another N, d or spacing is a ConfigError at stage "potential".
    Fills result in place and returns it.  An empty vacancy set and a one-node
    domain (no second eigenvalue) stop the pipeline with a KacLabError;
    solver failures propagate as raised.  BLAS runs on one thread throughout
    (blas.one_thread), so the bits do not depend on the caller's thread count.
    """
    config = result.config
    result.stage = "potential"
    if not isinstance(potential, InteractionPotential):
        potential = potential_from_spec(potential, config.N, config.d, config.grid_spacing)
    for name, built, wanted in (("N", potential.N, config.N), ("d", potential.d, config.d),
                                ("grid spacing", potential.h, config.grid_spacing)):
        if built != wanted:
            raise ConfigError(f"potential built for {name}={built!r}, "
                              f"the config's {name} is {wanted!r}")
    v = result.v = potential

    result.stage = "disorder"
    real = result.real = build_realization(config)
    if real.K == 0:
        raise KacLabError("empty vacancy set")

    result.stage = "spectrum"
    # the pair carries its operator, so one factor serves the spectrum and
    # the flow, and on the sets where lambda3 is asked for, h_u's spectrum too
    pair = result.pair = dirichlet_spectrum(real, eig_tol)
    # dirichlet_spectrum asks for 2 or 3 pairs: only a one-node set has no lambda2
    if pair.lambda2 is None:
        raise KacLabError("one-node domain")

    result.stage = "component"
    sel = result.selection = ground_state_component(real, pair)

    result.stage = "hartree"
    # the spectrum steers the flow: |phi1| starts it on the host, no second
    # Dirichlet solve, and lambda1, lambda2 shift its preconditioner and h_u
    result.hartree = minimize_hartree(real, sel.component, v, config.N, tol=el_tol,
                                      eig_tol=eig_tol, pair=pair)
    return result


HARTREE_FIELDS = ("component", "energy", "e1", "e2", "shift", "iterations", "el_residual")


def hartree_record(hs: HartreeSolution) -> dict:
    """The JSON-able Hartree summary shared by records and the CLI."""
    return {key: getattr(hs, key) for key in HARTREE_FIELDS}


def run_realization(
    config: DisorderConfig,
    potential,
    eta: float = ETA,
    sigma_ref: Optional[float] = None,
    eig_tol: float = EIG_TOL,
    el_tol: float = EL_TOL,
) -> dict:
    """Full pipeline on one realization, captured as a JSON-able record.

    run_pipeline on potential (a spec dict or a built potential), then the
    certificate; any stage failure is captured in the record under "error"
    instead of raising, so ensembles keep going and report their failures.
    """
    result = PipelineResult(config)
    certificate = error = None
    try:
        run_pipeline(result, potential, eig_tol=eig_tol, el_tol=el_tol)
        result.stage = "certificate"
        certificate = build_certificate(result.real, result.pair, result.v, result.hartree,
                                        eta=eta, sigma_ref=sigma_ref)
    except (KacLabError, ValueError, FloatingPointError, RuntimeError, MemoryError) as exc:
        # RuntimeError covers SuperLU's singular-matrix error and ArpackError;
        # SuperLU raises MemoryError when its fill does not fit
        error = {"stage": result.stage, "message": str(exc)}

    real, pair, sel, hs = result.real, result.pair, result.selection, result.hartree
    if certificate is not None:
        fraction = certificate["volume_event"]["fraction"]
    elif real is not None:
        fraction = volume_fraction(real, eta)[0]
    else:
        fraction = None
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "seed": config.seed,
        "config": {key: getattr(config, key) for key in ("d", "rho", "N", "nu", "r", "h")},
        "L": config.box_side,
        "K": None if real is None else real.K,
        "n_vacant": None if real is None else real.n_vacant,
        "volume_fraction": fraction,
        "lambda1": None if pair is None else pair.lambda1,
        "lambda2": None if pair is None else pair.lambda2,
        "host_component": None if sel is None else sel.component,
        "mass_outside": None if sel is None else sel.mass_outside,
        "multiple_support": sel is not None and sel.multiple,
        "hartree": None if hs is None else hartree_record(hs),
        "certificate": certificate,
        "error": error,
    }


def _job(args):
    config, v, kwargs = args
    return run_realization(config, v, **kwargs)


def run_ensemble(spec: EnsembleSpec, N: Optional[int] = None) -> list:
    """Run the pipeline over all seeds; records come back sorted by seed.

    The one potential is built before any realization: a bad spec raises here.
    The pool has at most one worker per job and per CPU.
    """
    base = dict(spec.base)
    if N is not None:
        base["N"] = N
    kwargs = {key: getattr(spec, key) for key in ("eta", "sigma_ref", "eig_tol", "el_tol")}
    configs = [DisorderConfig(**base, seed=seed) for seed in spec.seed_list()]
    first = configs[0]
    v = potential_from_spec(spec.potential, first.N, first.d, first.grid_spacing)
    jobs = [(config, v, kwargs) for config in configs]
    workers = min(spec.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_job, jobs))
    else:
        records = [_job(j) for j in jobs]
    return sorted(records, key=lambda rec: rec["seed"])


def wilson_interval(successes: int, n: int):
    """Wilson 95% score interval for a binomial proportion; Nones when n is 0."""
    z = WILSON_Z
    if n == 0:
        return None, None, None
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # clamp against roundoff: the score interval always contains p
    lo = min(max(center - half, 0.0), p)
    hi = max(min(center + half, 1.0), p)
    return p, lo, hi


def estimate_event_probabilities(records: list) -> dict:
    """Empirical frequencies of the certificate events with Wilson intervals.

    A function of the records alone.  Estimates P(volume event), P(gap event)
    and, when every successful certificate carries a reference gap scale,
    P(gap >= that scale).  Failed realizations are excluded from the
    frequencies but counted; with no successful record the frequencies and
    intervals are None.
    """
    certs = [r["certificate"] for r in records if r["error"] is None]
    n = len(certs)
    events = {
        "volume_event": lambda c: c["volume_event"]["ok"],
        "gap_event": lambda c: c["gap_event"]["ok"],
    }
    if certs and all(c["scaling"]["gap_scale_ref"] is not None for c in certs):
        # each certificate carries its gap lambda2 - lambda1 and its scale
        events["gap_above_reference"] = (
            lambda c: c["gap_event"]["lhs"] >= c["scaling"]["gap_scale_ref"])

    out = {"n_records": len(records), "n_ok": n, "n_failed": len(records) - n}
    for name, hit in events.items():
        hits = sum(1 for c in certs if hit(c))
        p, lo, hi = wilson_interval(hits, n)
        out[name] = {"frequency": p, "lo": lo, "hi": hi, "hits": hits, "n": n}
    return out


def _fit_loglog(x, y):
    """Least-squares slope of log y against log x, with R^2."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def _median(values):
    return float(np.median(values)) if values else None


def scaling_sweep(spec: EnsembleSpec) -> dict:
    """Medians of lambda1, gap and depletion bound across an N sweep.

    A median with no data is None: n_with_bound counts a row's records with a
    depletion bound (e2 > e1), and with none the median bound is None, since
    no bound is not a zero one.  Fits log(median lambda1) against log N and
    against log((ln N)^(-2/d)), and log(median gap) against
    log((ln N)^-(1+2/d)); a fit needs three rows with its median and is left
    out otherwise.  The asymptotic (ln N) regime is not reachable at desk
    scale, so the disordered fits are trend data only.
    """
    if len(spec.N_values) < 3:
        raise ConfigError("need >= 3 N values for a sweep")
    d = spec.base["d"]
    rows = []
    for N in spec.N_values:
        records = run_ensemble(spec, N=N)
        ok = [r for r in records if r["error"] is None]
        depl = [
            r["certificate"]["depletion_bound"]
            for r in ok
            if r["certificate"] and r["certificate"]["depletion_bound"] is not None
        ]
        rows.append(
            {
                "N": N,
                "n_ok": len(ok),
                "n_failed": len(records) - len(ok),
                "median_lambda1": _median([r["lambda1"] for r in ok]),
                "median_gap": _median([r["lambda2"] - r["lambda1"]
                                       for r in ok if r["lambda2"] is not None]),
                "n_with_bound": len(depl),
                "median_depletion_bound": _median(depl),
            }
        )

    fits = {}
    for name, key, scale in (
        ("lambda1_vs_N", "median_lambda1", lambda N: N),
        ("lambda1_vs_logN_scale", "median_lambda1", lambda N: math.log(N) ** (-2.0 / d)),
        ("gap_vs_gap_scale", "median_gap", lambda N: math.log(N) ** -(1.0 + 2.0 / d)),
    ):
        # a log-log fit needs a positive median
        fit_rows = [row for row in rows if row[key]]
        if len(fit_rows) >= 3:
            slope, _, r2 = _fit_loglog([scale(row["N"]) for row in fit_rows],
                                       [row[key] for row in fit_rows])
            fits[name] = {"slope": slope, "r2": r2}
    return {"rows": rows, "fits": fits}
