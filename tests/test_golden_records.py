"""Golden records: fixed records and one exact-oracle instance, pinned field by field.

The cases are 12 ensemble_small seeds (d=2 N=64, kappa=0.05, banded hosts
under P_W), two kappa=10 nu=0.3 seeds whose flows take 88 and 936 steps with
P_W refreshes, one d=2 N=1024 record on the SuperLU/LOBPCG path (5,632 nodes),
and one exact oracle instance (N=3 on 22 sites, 2,024 states) with the
certificate of the pipeline's u.  Each field's tolerance comes from its
contract:

- lambda1, lambda2, e1, energy and E_qm, and lambda2 - lambda1 with the
  gap event's margin, at eig_tol (what lowest_eigenpairs checks);
- e2, and e2 - e1 with the depletion bound built from it, at el_tol: e2 is
  not stationary in u (hartree.HartreeSolution), nor is the oracle's
  n_condensate, which reads u;
- every bool, int, string and None exactly, certificate flags and the
  certify assertions among them, except the flow's iteration count, which
  is not pinned;
- other floats (residuals, roundoff-level consistency gaps, the product
  overlap) are reported, not pinned.

    python tests/test_golden_records.py            each field's largest move
    python tests/test_golden_records.py --write    rewrite the golden

Rewrite the golden only with a CHANGES.md entry that lists every moved field,
its size and its reason; tolerances are never widened to pass.
"""

import json
import sys
from pathlib import Path

import numpy as np

import kaclab
from kaclab import blas
from kaclab.certify import certificate_assertions
from kaclab.ensemble import derive_seeds, hartree_record
from kaclab.hartree import EL_TOL
from kaclab.laplace import EIG_TOL

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_records.json"
BASE = {"d": 2, "rho": 1.0, "N": 64, "nu": 0.15, "r": 0.5, "h": 0.4}
POTENTIAL = {"kind": "gaussian", "kappa": 0.05, "width": 0.5}
STRONG_SEED = 9682444039107010595      # kappa=10, nu=0.3: 88 flow steps
LONG_FLOW_SEED = 3758095861278844018   # kappa=10, nu=0.3: 936 flow steps
SPARSE_SEED = 3972976727410370023      # d=2 N=1024: 5,632 nodes, LOBPCG certified
ORACLE_SEED = 11069854644879971893     # N=3 in a 2.4 box: 22 sites, 2,024 states


def _flat(tree, prefix=""):
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _with_assertions(record, certificate, lambda2):
    """record with the flags of certify's asserted checks, at its eig_tol budget."""
    budget = EIG_TOL * max(abs(lambda2), 1.0)
    for name, ok, _ in certificate_assertions(certificate, eig_tol_abs=budget):
        record[f"assertions.{name}"] = ok
    return record


def _pipeline_case(record):
    return _with_assertions(_flat(record), record["certificate"], record["lambda2"])


def _oracle_case():
    config = kaclab.DisorderConfig(d=2, rho=3 / 2.4**2, N=3, nu=0.15, r=0.5, h=0.4,
                                   seed=ORACLE_SEED)
    v = kaclab.build_interaction("gaussian", 1.0, 3, 2, config.grid_spacing, {"width": 0.5})
    res = kaclab.run_pipeline(kaclab.PipelineResult(config), v, eig_tol=EIG_TOL, el_tol=EL_TOL)
    real, hs = res.real, res.hartree
    gs = kaclab.ground_state(kaclab.build_manybody_hamiltonian(real, v, 3))
    oracle = {"E_qm": gs.E_qm,
              "n_condensate": kaclab.condensate_occupation(
                  kaclab.one_body_density_matrix(gs), hs.u, real, 3),
              "product_overlap": float(kaclab.product_state(gs.hamiltonian, hs.u[real.mask])
                                       @ gs.psi) ** 2}
    cert = kaclab.build_certificate(real, res.pair, v, hs, oracle=oracle)
    record = {"E_qm": gs.E_qm, "n_condensate": oracle["n_condensate"],
              "lambda1": res.pair.lambda1, "lambda2": res.pair.lambda2,
              "hartree": hartree_record(hs), "certificate": cert}
    return _with_assertions(_flat(record), cert, res.pair.lambda2)


def compute_cases():
    """{case name: flat record}, every case at one BLAS thread."""
    with blas.one_thread():
        seeds = derive_seeds(2024, 12)
        spec = kaclab.EnsembleSpec(base=BASE, potential=POTENTIAL, seeds=seeds,
                                   eig_tol=EIG_TOL, el_tol=EL_TOL)
        cases = {f"ensemble_small {rec['seed']}": _pipeline_case(rec)
                 for rec in kaclab.run_ensemble(spec)}
        for name, base, potential, seed in (
                ("kappa=10 nu=0.3", {**BASE, "nu": 0.3}, {**POTENTIAL, "kappa": 10.0},
                 STRONG_SEED),
                ("kappa=10 nu=0.3", {**BASE, "nu": 0.3}, {**POTENTIAL, "kappa": 10.0},
                 LONG_FLOW_SEED),
                ("d=2 N=1024", {**BASE, "N": 1024}, POTENTIAL, SPARSE_SEED)):
            config = kaclab.DisorderConfig(**base, seed=seed)
            record = kaclab.run_realization(config, potential, eig_tol=EIG_TOL, el_tol=EL_TOL)
            cases[f"{name} {seed}"] = _pipeline_case(record)
        cases[f"oracle {ORACLE_SEED}"] = _oracle_case()
    return cases


def _eig_pair(r):
    return abs(r["lambda1"]) + abs(r["lambda2"])


def _el_gap(r):
    return abs(r["hartree.e1"]) + abs(r["hartree.e2"])


# field -> (tolerance, its scale in the golden record): allowance = tol * scale
TOLERANCES = {
    "lambda1": (EIG_TOL, lambda r: abs(r["lambda1"])),
    "lambda2": (EIG_TOL, lambda r: abs(r["lambda2"])),
    "certificate.gap_event.lhs": (EIG_TOL, _eig_pair),
    "certificate.gap_event.margin": (EIG_TOL, _eig_pair),
    "hartree.e1": (EIG_TOL, lambda r: abs(r["hartree.e1"])),
    "hartree.energy": (EIG_TOL, lambda r: abs(r["hartree.energy"])),
    "E_qm": (EIG_TOL, lambda r: abs(r["E_qm"])),
    "hartree.e2": (EL_TOL, lambda r: abs(r["hartree.e2"])),
    "certificate.gap_actual": (EL_TOL, _el_gap),
    # v(0) / (2 (e2 - e1)) moves by its own size times the gap's relative move
    "certificate.depletion_bound": (
        EL_TOL, lambda r: r["certificate.depletion_bound"] * _el_gap(r)
        / r["certificate.gap_actual"]),
    "n_condensate": (EL_TOL, lambda r: abs(r["n_condensate"])),
}
UNPINNED = {"hartree.iterations"}


def _move(key, old, new):
    """(relative move, move in allowances) of one field of one case.

    The relative move is |new - old| / |old| (|new - old| where old is 0).
    A float of TOLERANCES moves by |new - old| / (tol * scale) allowances;
    another float, or an UNPINNED number, by None: it is reported only.
    Anything else, and a number that became something else or went
    missing, is exact: it moves by 0 or inf.
    """
    value, got = old[key], new.get(key, ...)
    if type(value) is type(got) is float or (key in UNPINNED and type(value) is type(got)):
        diff = abs(got - value)
        rel = diff / abs(value) if value else float(diff)
        if key not in TOLERANCES:
            return rel, None
        tol, scale = TOLERANCES[key]
        return rel, diff / (tol * scale(old)) if diff else 0.0
    moved = 0.0 if type(got) is type(value) and got == value else np.inf
    return moved, moved


def drift(golden, fresh):
    """{field: (largest relative move, largest move in allowances)} over all cases."""
    moves = {}
    for case, old in golden.items():
        for key in old:
            rel, count = _move(key, old, fresh.get(case, {}))
            prev_rel, prev_count = moves.get(key, (0.0, None))
            moves[key] = (max(rel, prev_rel), prev_count if count is None
                          else max(count, prev_count or 0.0))
    return moves


def test_records_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = compute_cases()
    assert sorted(fresh) == sorted(golden)
    for case, record in fresh.items():
        assert sorted(record) == sorted(golden[case]), case
    moved = {key: move for key, move in drift(golden, fresh).items()
             if move[1] is not None and move[1] > 1.0}
    assert not moved, moved


def test_tolerances_name_golden_fields():
    golden = json.loads(GOLDEN.read_text())
    fields = set().union(*golden.values())
    assert set(TOLERANCES) | UNPINNED <= fields
    assert all(np.isfinite(value) for record in golden.values()
               for key, value in record.items() if key in TOLERANCES)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(compute_cases(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        print(f"{'field':60s} {'relative':>9s}  allowances")
        for key, (rel, count) in sorted(drift(json.loads(GOLDEN.read_text()),
                                              compute_cases()).items()):
            print(f"{key:60s} {rel:9.2e}  {'reported' if count is None else f'{count:.3g}'}")
