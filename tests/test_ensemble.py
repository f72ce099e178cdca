"""Ensemble driver: records, frequencies, sweeps, reproducibility."""

import inspect
import json
import math

import pytest

from kaclab import (
    ConfigError,
    DisorderConfig,
    EnsembleSpec,
    PipelineResult,
    build_certificate,
    certify,
    ensemble,
    run_ensemble,
    run_pipeline,
    run_realization,
    volume_fraction,
)
from kaclab.ensemble import (
    derive_seeds,
    estimate_event_probabilities,
    scaling_sweep,
    wilson_interval,
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

    def test_solver_failure_captured_not_raised(self, monkeypatch):
        from kaclab import hartree

        monkeypatch.setattr(hartree, "MAX_ITER", 1)
        config = DisorderConfig(seed=3, **BASE)
        rec = run_realization(config, POT)
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

    def test_memory_error_captured_with_stage(self, monkeypatch):
        # SuperLU raises MemoryError when its fill does not fit; the other
        # seeds of the ensemble still come back
        spec = spec_with(seeds=3, workers=1)
        failing = spec.seed_list()[1]
        solve, calls = ensemble.lowest_eigenpairs, []

        def out_of_memory_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # seeds run in seed_list order on one worker
                raise MemoryError("fill does not fit")
            return solve(*args, **kwargs)

        monkeypatch.setattr(ensemble, "lowest_eigenpairs", out_of_memory_once)
        records = run_ensemble(spec)
        assert len(records) == 3
        (failed,) = [r for r in records if r["error"] is not None]
        assert failed["seed"] == failing
        assert failed["error"] == {"stage": "spectrum", "message": "fill does not fit"}


def test_every_tolerance_default_is_the_one_constant():
    """laplace.EIG_TOL is the eigensolver contract and hartree.EL_TOL the flow's."""
    from kaclab import hartree, laplace, manybody

    eig, el = laplace.EIG_TOL, hartree.EL_TOL
    expected = {
        EnsembleSpec: {"eig_tol": eig, "el_tol": el},
        run_pipeline: {"eig_tol": eig, "el_tol": el},
        run_realization: {"eig_tol": eig, "el_tol": el},
        hartree.minimize_hartree: {"tol": el, "eig_tol": eig},
        laplace.lowest_eigenpairs: {"tol": eig},
        hartree.effective_spectrum: {"tol": eig},
        hartree.laplacian_factor_spectrum: {"tol": eig},
        hartree.component_ground_state: {"eig_tol": eig},
    }
    for fn, defaults in expected.items():
        params = inspect.signature(fn).parameters
        found = {name: p.default for name, p in params.items() if name.endswith("tol")}
        assert found.keys() == defaults.keys(), fn.__name__
        for name, default in found.items():
            assert default is defaults[name], (fn.__name__, name)
    # the many-body ground state is held to the same contract, not to its own
    assert manybody.EIG_TOL is eig
    assert not hasattr(manybody, "RESIDUAL_RTOL")


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


class TestPotentialOncePerEnsemble:
    @staticmethod
    def count_builds(monkeypatch):
        import kaclab.ensemble as ensemble_mod

        calls = []
        build = ensemble_mod.potential_from_spec

        def spy(spec, N, d, h):
            calls.append(N)
            return build(spec, N, d, h)

        monkeypatch.setattr(ensemble_mod, "potential_from_spec", spy)
        return calls

    def test_one_build_for_all_seeds(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        records = run_ensemble(spec_with(seeds=5))
        assert calls == [BASE["N"]]
        assert len(records) == 5 and all(r["error"] is None for r in records)

    def test_one_build_per_N_in_a_sweep(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        scaling_sweep(spec_with(seeds=2, N_values=[16, 64, 256]))
        assert calls == [16, 64, 256]

    @pytest.mark.parametrize("potential, base, message", [
        ({"kind": "foo", "kappa": 0.1}, BASE, "unknown potential kind"),
        (POT, {**BASE, "N": 1, "rho": 1.0 / 16}, "N=1"),
        ({"kappa": 0.2}, BASE, "no 'kind'"),
        ({"kind": "gaussian"}, BASE, "no 'kappa'"),
    ], ids=["unknown_kind", "N_below_two", "missing_kind", "missing_kappa"])
    def test_bad_spec_fails_before_any_realization(self, monkeypatch, potential, base,
                                                   message):
        import kaclab.ensemble as ensemble_mod

        def no_realization(config):
            raise AssertionError("a realization was built")

        monkeypatch.setattr(ensemble_mod, "build_realization", no_realization)
        with pytest.raises(ConfigError, match=message):
            run_ensemble(spec_with(base=base, potential=potential, seeds=3))


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

    def test_gap_above_reference_recounts_from_lambdas(self, criterion_56_records):
        spec, records = criterion_56_records
        summary = estimate_event_probabilities(spec, records=records)
        scale = spec.sigma_ref * math.log(spec.base["N"]) ** -(1.0 + 2.0 / spec.base["d"])
        ok = [r for r in records if r["error"] is None]
        hits = sum(r["lambda2"] - r["lambda1"] >= scale for r in ok)
        assert 0 < hits < len(ok) == summary["n_ok"]
        assert summary["gap_above_reference"]["hits"] == hits

    def test_too_few_seeds_rejected(self, monkeypatch):
        import kaclab.ensemble as ensemble_mod

        def no_ensemble(spec, N=None):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr(ensemble_mod, "run_ensemble", no_ensemble)
        for seeds in (5, [1, 2, 3]):
            with pytest.raises(ValueError, match="30"):
                estimate_event_probabilities(spec_with(seeds=seeds))

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
    def test_two_workers_match_serial(self):
        for base, count in ((BASE, 6), (ARPACK_BASE, 2)):
            seeds = derive_seeds(99, count)
            parallel = run_ensemble(spec_with(base=base, seeds=seeds, workers=2))
            serial = run_ensemble(spec_with(base=base, seeds=seeds, workers=1))
            assert json.dumps(parallel, sort_keys=True) == json.dumps(
                serial, sort_keys=True
            )


class TestVolumeFractionOncePerRecord:
    def test_one_count_and_the_same_certificate(self, monkeypatch):
        config = DisorderConfig(seed=3, **BASE)
        calls = []

        def counting_volume_fraction(real, eta=0.1):
            calls.append(eta)
            return volume_fraction(real, eta)

        direct = run_pipeline(PipelineResult(config), POT)
        expected = build_certificate(direct.real, direct.pair, direct.v, direct.hartree,
                                     eta=0.2, sigma_ref=1.0)
        monkeypatch.setattr(ensemble, "volume_fraction", counting_volume_fraction)
        monkeypatch.setattr(certify, "volume_fraction", counting_volume_fraction)
        rec = run_realization(config, POT, eta=0.2, sigma_ref=1.0)
        assert calls == [0.2]
        assert json.dumps(rec["certificate"], sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True)
        assert rec["volume_fraction"] == rec["certificate"]["volume_event"]["fraction"]


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

    def test_missing_depletion_bound_reads_nan(self, monkeypatch):
        # a row where no record has a bound must not claim a zero one
        def records(spec, N):
            rec = {"error": None, "lambda1": 1.0 / N, "lambda2": 2.0 / N,
                   "certificate": {"depletion_bound": None}}
            with_bound = dict(rec, certificate={"depletion_bound": 0.25})
            return [rec, with_bound] if N == 64 else [rec, rec]

        monkeypatch.setattr(ensemble, "run_ensemble", records)
        rows = scaling_sweep(spec_with(N_values=[16, 64, 256]))["rows"]
        assert [row["n_with_bound"] for row in rows] == [0, 1, 0]
        assert math.isnan(rows[0]["median_depletion_bound"])
        assert rows[1]["median_depletion_bound"] == 0.25
        assert math.isnan(rows[2]["median_depletion_bound"])

    def test_requires_three_N_values(self):
        with pytest.raises(ValueError):
            scaling_sweep(spec_with(N_values=[16, 64]))

    def test_N_values_must_increase(self):
        with pytest.raises(ValueError):
            spec_with(N_values=[64, 16, 256])
