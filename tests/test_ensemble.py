"""Ensemble driver: records, frequencies, sweeps, reproducibility."""

import json
import math

import pytest

from kaclab import DisorderConfig, EnsembleSpec, run_ensemble, run_realization
from kaclab.ensemble import (
    derive_seeds,
    estimate_event_probabilities,
    scaling_sweep,
    wilson_interval,
    worker_budget,
)

BASE = {"d": 2, "rho": 1.0, "N": 16, "nu": 0.3, "r": 0.6, "h": 0.5}
POT = {"kind": "gaussian", "kappa": 0.1, "width": 0.5}
# ~2,100 vacant nodes: above DENSE_CUTOFF, so spectra go through ARPACK
ARPACK_BASE = {"d": 2, "rho": 1.0, "N": 400, "nu": 0.15, "r": 0.5, "h": 0.4}

RECORD_KEYS = {
    "schema_version", "seed", "config", "L", "K", "n_vacant",
    "volume_fraction", "lambda1", "lambda2", "degenerate_size",
    "host_component", "mass_outside", "multiple_support", "hartree",
    "certificate", "error",
}


def spec_with(**kw):
    args = dict(base=dict(BASE), potential=dict(POT), seeds=10, master_seed=1)
    args.update(kw)
    return EnsembleSpec(**args)


class TestRunRealization:
    def test_clean_noninteracting_record(self):
        config = DisorderConfig(seed=0, **{**BASE, "nu": 0.0})
        rec = run_realization(config, {"kind": "gaussian", "kappa": 0.0})
        assert rec["error"] is None
        assert rec["K"] == 1
        assert rec["certificate"]["gap_event"]["ok"]
        assert rec["certificate"]["depletion_bound"] == 0.0
        assert rec["volume_fraction"] == 1.0

    def test_record_bytes_deterministic(self):
        config = DisorderConfig(seed=5, **BASE)
        a = run_realization(config, POT)
        b = run_realization(config, POT)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_schema_keys_stable(self):
        config = DisorderConfig(seed=2, **BASE)
        rec = run_realization(config, POT)
        assert set(rec.keys()) == RECORD_KEYS
        assert set(rec["hartree"].keys()) == {
            "component", "energy", "e1", "e2", "shift", "iterations",
            "el_residual",
        }

    def test_solver_failure_captured_not_raised(self):
        config = DisorderConfig(seed=3, **BASE)
        rec = run_realization(config, POT, max_iter=1)
        assert rec["error"] is not None
        assert rec["error"]["stage"] == "hartree"
        assert rec["certificate"] is None

    def test_runtime_error_captured_with_stage(self, monkeypatch):
        # SuperLU's singular-matrix error and ArpackError are RuntimeErrors
        import kaclab.ensemble as ensemble_mod

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(ensemble_mod, "lowest_eigenpairs", singular)
        rec = run_realization(DisorderConfig(seed=3, **BASE), POT)
        assert rec["error"] == {"stage": "spectrum",
                                "message": "Factor is exactly singular"}
        assert rec["K"] is not None and rec["lambda1"] is None
        seeds = derive_seeds(4, 3)
        records = run_ensemble(spec_with(seeds=seeds, workers=1))
        assert [r["seed"] for r in records] == sorted(seeds)
        assert all(r["error"]["stage"] == "spectrum" for r in records)


class TestEnsemble:
    def test_batch_count_and_validity(self):
        records = run_ensemble(spec_with(seeds=100))
        assert len(records) == 100
        for rec in records:
            assert set(rec.keys()) == RECORD_KEYS
            json.dumps(rec)  # serializable
        assert sum(rec["error"] is None for rec in records) >= 95

    def test_seed_list_permutation_invariant(self):
        seeds = derive_seeds(7, 12)
        fwd = run_ensemble(spec_with(seeds=seeds))
        rev = run_ensemble(spec_with(seeds=seeds[::-1]))
        assert json.dumps(fwd, sort_keys=True) == json.dumps(rev, sort_keys=True)
        # ARPACK sizes: each seed runs after a different history in-process
        seeds = derive_seeds(7, 3)
        fwd = run_ensemble(spec_with(base=ARPACK_BASE, seeds=seeds))
        rev = run_ensemble(spec_with(base=ARPACK_BASE, seeds=seeds[::-1]))
        assert all(r["error"] is None for r in fwd)
        assert json.dumps(fwd, sort_keys=True) == json.dumps(rev, sort_keys=True)

    def test_derived_seeds_deterministic_distinct(self):
        a = derive_seeds(123, 50)
        b = derive_seeds(123, 50)
        assert a == b
        assert len(set(a)) == 50

    def test_worker_budget_env_cap(self, monkeypatch):
        monkeypatch.setenv("KL_WORKERS", "2")
        assert worker_budget(8) == 2
        monkeypatch.delenv("KL_WORKERS")
        assert worker_budget(3) == 3


class TestEventProbabilities:
    def test_obstacle_free_probabilities_are_one(self):
        spec = spec_with(
            base={**BASE, "nu": 0.0},
            potential={"kind": "gaussian", "kappa": 0.0},
            seeds=30,
            sigma_ref=1e-6,
        )
        summary = estimate_event_probabilities(spec)
        assert summary["n_ok"] == 30
        assert summary["volume_event"]["frequency"] == 1.0
        # kappa = 0: gap event reduces to lambda2 > lambda1, never degenerate here
        assert summary["gap_event"]["frequency"] == 1.0
        assert summary["gap_above_reference"]["frequency"] == 1.0

    def test_frequencies_and_intervals_well_formed(self):
        spec = spec_with(seeds=40)
        summary = estimate_event_probabilities(spec)
        for key in ("volume_event", "gap_event"):
            stats = summary[key]
            assert 0.0 <= stats["lo"] <= stats["frequency"] <= stats["hi"] <= 1.0

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ValueError, match="30"):
            estimate_event_probabilities(spec_with(seeds=5))

    def test_wilson_interval_contains_estimate(self):
        for hits, n in [(0, 10), (5, 10), (10, 10), (37, 100)]:
            p, lo, hi = wilson_interval(hits, n)
            assert 0.0 <= lo <= p <= hi <= 1.0


class TestGoldenSchema:
    def test_record_matches_golden_schema(self):
        import pathlib

        golden = json.loads(
            (pathlib.Path(__file__).parent / "data" / "golden_record_schema.json")
            .read_text()
        )

        def schema(node):
            if isinstance(node, dict):
                return {k: schema(v) for k, v in sorted(node.items())}
            if isinstance(node, bool):
                return "bool"
            if isinstance(node, (int, float)):
                return "number"
            if node is None:
                return "null"
            if isinstance(node, str):
                return "string"
            if isinstance(node, list):
                return "list"
            return type(node).__name__

        def compatible(got, want, path=""):
            if isinstance(want, dict):
                assert isinstance(got, dict) and set(got) == set(want), path
                for key in want:
                    compatible(got[key], want[key], f"{path}.{key}")
            else:
                assert got == want or got in want.split("|"), (
                    f"{path}: {got!r} not allowed by {want!r}"
                )

        config = DisorderConfig(seed=3, **BASE)
        rec = run_realization(config, POT, sigma_ref=1.0)
        assert rec["error"] is None
        compatible(schema(rec), golden)


class TestParallelExecution:
    def test_two_workers_match_serial(self, monkeypatch):
        for base, count in ((BASE, 6), (ARPACK_BASE, 2)):
            monkeypatch.setenv("KL_WORKERS", "2")
            seeds = derive_seeds(99, count)
            parallel = run_ensemble(spec_with(base=base, seeds=seeds, workers=2))
            monkeypatch.setenv("KL_WORKERS", "1")
            serial = run_ensemble(spec_with(base=base, seeds=seeds, workers=1))
            assert json.dumps(parallel, sort_keys=True) == json.dumps(
                serial, sort_keys=True
            )


class TestThreeDimensional:
    def test_d3_pipeline_record(self):
        config = DisorderConfig(d=3, rho=1.0, N=27, nu=0.2, r=0.5, h=0.375, seed=4)
        rec = run_realization(
            config, {"kind": "gaussian", "kappa": 0.1, "width": 0.5}
        )
        assert rec["error"] is None
        assert rec["lambda1"] > 0
        cert = rec["certificate"]
        assert cert["gap_actual"] is not None
        if cert["supnorm_diag"]["ok"]:
            assert cert["gap_actual"] >= cert["gap_lower_bound"] - 1e-8
        # d=3 constants recomputed from the dimension
        assert cert["constants"]["unit_ball_volume"] == pytest.approx(
            4.0 * math.pi / 3.0
        )


class TestScalingSweep:
    def test_free_box_slope_minus_2_over_d(self):
        # lambda1 = d pi^2 / L^2 with L ~ N^(1/d): slope in log N is -2/d
        spec = spec_with(
            base={**BASE, "nu": 0.0, "h": 0.5},
            potential={"kind": "gaussian", "kappa": 0.0},
            seeds=1,
            N_values=[64, 256, 1024],
        )
        result = scaling_sweep(spec)
        slope = result["fits"]["lambda1_vs_N"]["slope"]
        assert slope == pytest.approx(-1.0, abs=5e-3)
        assert result["fits"]["lambda1_vs_N"]["r2"] > 0.9999

    def test_zero_coupling_depletion_column_zero(self):
        spec = spec_with(
            potential={"kind": "gaussian", "kappa": 0.0},
            seeds=2,
            N_values=[16, 64, 256],
        )
        result = scaling_sweep(spec)
        for row in result["rows"]:
            assert row["median_depletion_bound"] == 0.0

    def test_requires_three_N_values(self):
        with pytest.raises(ValueError):
            scaling_sweep(spec_with(N_values=[16, 64]))

    def test_N_values_must_increase(self):
        with pytest.raises(ValueError):
            spec_with(N_values=[64, 16, 256])
