"""Vacancy geometry: Poisson sampling, masks, components, volume law."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import kaclab
from kaclab import (
    ConfigError,
    DisorderConfig,
    DisorderRealization,
    build_realization,
    sample_centers,
    volume_fraction,
)
from kaclab.disorder import unit_ball_volume

from conftest import brute_force_mask, flood_fill_components, tiny_box_config


def config_L10(seed=0, nu=1.0, r=0.5, h=0.25):
    # rho=1, N=100 gives L=10 exactly
    return DisorderConfig(d=2, rho=1.0, N=100, nu=nu, r=r, h=h, seed=seed)


class TestConfigValidation:
    def test_h_not_smaller_than_r_rejected(self):
        with pytest.raises(ConfigError, match="h=0.5.*r=0.5"):
            DisorderConfig(d=2, rho=1.0, N=16, nu=0.1, r=0.5, h=0.5, seed=0)

    @pytest.mark.parametrize("bad", [dict(d=1), dict(d=4), dict(rho=0.0),
                                     dict(N=0), dict(nu=-1.0), dict(r=-1.0),
                                     dict(h=-0.1), dict(d=2.0), dict(N=True),
                                     dict(rho=True), dict(nu="abc"), dict(nu=math.nan),
                                     dict(seed=-1), dict(seed=1.5)])
    def test_bad_fields_rejected(self, bad):
        fields = dict(d=2, rho=1.0, N=16, nu=0.1, r=0.5, h=0.25, seed=0)
        fields.update(bad)
        with pytest.raises(ConfigError):
            DisorderConfig(**fields)

    def test_fewer_than_two_cells_rejected(self):
        # L = 0.01: h=0.1 leaves no cell across the box
        with pytest.raises(ConfigError, match="fewer than 2 cells"):
            DisorderConfig(d=2, rho=1e4, N=1, nu=0, r=0.5, h=0.1, seed=0)

    def test_box_side_recomputed(self):
        cfg = DisorderConfig(d=2, rho=4.0, N=4, nu=0.0, r=0.5, h=0.25, seed=0)
        assert cfg.box_side == pytest.approx(1.0)
        cfg3 = DisorderConfig(d=3, rho=1.0, N=27, nu=0.0, r=0.5, h=0.25, seed=0)
        assert cfg3.box_side == pytest.approx(3.0)


class TestSampleCenters:
    def test_zero_intensity_empty(self):
        pts = sample_centers(config_L10(nu=0.0))
        assert pts.shape == (0, 2)

    def test_poisson_mean_count(self):
        # dilated box side L + 2r = 11, so E[M] = nu * 121
        counts = [
            sample_centers(config_L10(seed=s)).shape[0] for s in range(10_000)
        ]
        mean = np.mean(counts)
        se = math.sqrt(121.0 / len(counts))
        assert abs(mean - 121.0) < 3.0 * se

    def test_centers_in_dilated_box(self):
        pts = sample_centers(config_L10(seed=3))
        assert np.all(np.abs(pts) <= 5.5)

    def test_deterministic_per_seed(self):
        a = sample_centers(config_L10(seed=42))
        b = sample_centers(config_L10(seed=42))
        assert a.tobytes() == b.tobytes()
        c = sample_centers(config_L10(seed=43))
        assert a.shape != c.shape or a.tobytes() != c.tobytes()


class TestBuildRealization:
    def test_no_centers_all_vacant_single_component(self):
        real = build_realization(config_L10(nu=0.0))
        assert real.mask.all()
        assert real.K == 1
        assert np.all(real.labels == 1)

    def test_single_center_matches_bruteforce(self):
        # one obstacle at the origin with r = L/4: annular-complement region
        config = config_L10(r=2.5, h=0.5)
        centers = np.array([[0.0, 0.0]])
        real = build_realization(config, centers=centers)
        expected_mask = brute_force_mask(config, centers)
        assert np.array_equal(real.mask, expected_mask)
        labels, K = flood_fill_components(expected_mask)
        assert real.K == K
        assert np.array_equal(real.labels, labels)

    def test_three_centers_split_two_components(self):
        # centers along the middle column cut the box into left and right
        config = DisorderConfig(d=2, rho=1.0, N=16, nu=0.0, r=0.6, h=0.5, seed=0)
        centers = np.array([[0.0, -1.5], [0.0, 0.0], [0.0, 1.5]])
        real = build_realization(config, centers=centers)
        labels, K = flood_fill_components(brute_force_mask(config, centers))
        assert real.K == K == 2
        counts = [int(np.sum(labels == k)) for k in (1, 2)]
        expected = [c * config.grid_spacing**2 for c in counts]
        assert real.component_volumes == pytest.approx(expected)

    def test_random_realizations_match_oracles(self):
        for seed in range(5):
            config = config_L10(seed=seed, nu=0.8, r=0.6, h=0.5)
            real = build_realization(config)
            expected_mask = brute_force_mask(config, real.centers)
            assert np.array_equal(real.mask, expected_mask)
            labels, K = flood_fill_components(expected_mask)
            assert real.K == K
            assert np.array_equal(real.labels, labels)

    def test_bitwise_determinism(self):
        a = build_realization(config_L10(seed=9, nu=0.5))
        b = build_realization(config_L10(seed=9, nu=0.5))
        assert a.mask.tobytes() == b.mask.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.component_volumes == b.component_volumes

    def test_adding_center_never_unblocks(self):
        config = config_L10(seed=5, nu=0.3)
        centers = sample_centers(config)
        before = build_realization(config, centers=centers).mask
        extra = np.vstack([centers, [[1.234, -2.345]]])
        after = build_realization(config, centers=extra).mask
        assert not np.any(after & ~before)

    def test_labels_partition_and_volumes(self):
        real = build_realization(config_L10(seed=11, nu=0.7, r=0.6))
        assert np.array_equal(real.labels > 0, real.mask)
        assert set(np.unique(real.labels)) == set(range(real.K + 1))
        assert sum(real.component_volumes) == pytest.approx(
            real.n_vacant * real.h**2
        )

    def test_canonical_label_order(self):
        # a sampled realization, then random 2D and 3D masks
        rng = np.random.default_rng(3)
        config_3d = DisorderConfig(d=3, rho=1.0, N=27, nu=0.0, r=0.5, h=0.25, seed=0)
        reals = [build_realization(config_L10(seed=11, nu=0.7, r=0.6))]
        for config in [config_L10()] * 10 + [config_3d] * 10:
            mask = rng.random(config.grid_dims) < rng.uniform(0.3, 0.7)
            reals.append(DisorderRealization.from_mask(config, mask))
        for real in reals:
            flat = real.labels.ravel()
            firsts = [np.flatnonzero(flat == k)[0] for k in range(1, real.K + 1)]
            assert firsts == sorted(firsts)

    def test_from_mask_rejects_wrong_shape(self):
        config = tiny_box_config()
        with pytest.raises(ConfigError):
            DisorderRealization.from_mask(config, np.ones((2, 2), dtype=bool))


class TestBallStamp:
    def test_closed_ball_blocks_a_node_at_distance_exactly_r(self):
        # h = 0.25 divides L = 10 and r = 0.5: node k sits at -5 + 0.25 (k + 1),
        # so the center is node (19, 19) and node (19, 21) lies at distance 0.5
        config = config_L10(r=0.5, h=0.25)
        centers = np.array([[0.0, 0.0]])
        mask = build_realization(config, centers=centers).mask
        assert np.array_equal(mask, brute_force_mask(config, centers))
        assert not mask[19, 21] and not mask[21, 19] and not mask[19, 17]
        assert mask[19, 22] and mask[20, 21]
        # nodes (i, j) h from the center with i^2 + j^2 <= 4
        assert np.count_nonzero(~mask) == 13

    def test_fine_3d_box_matches_bruteforce(self):
        config = tiny_box_config(N=2, L=1.6, h=0.1, d=3, nu=1.0, r=0.5, seed=3)
        real = build_realization(config)
        assert len(real.centers) > 5 and 0 < real.n_vacant < real.n_nodes
        assert np.array_equal(real.mask, brute_force_mask(config, real.centers))

    def test_transient_memory_bounded_by_the_grid(self):
        # 501 centers on a 39^3 grid; each window holds 14^3 nodes, so stamping
        # every center at once would take about 400 bytes per grid node
        config = tiny_box_config(N=2, L=4.0, h=0.1, d=3, nu=4.0, r=0.5, seed=1)
        centers = sample_centers(config)
        build_realization(config, centers)
        tracemalloc.start()
        try:
            real = build_realization(config, centers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(centers) > 400
        assert peak <= 32 * real.n_nodes

    def test_import_does_not_load_scipy_spatial(self):
        src = os.path.dirname(os.path.dirname(kaclab.__file__))
        subprocess.run(
            [sys.executable, "-c",
             "import kaclab, kaclab.cli, sys; assert 'scipy.spatial' not in sys.modules"],
            env=dict(os.environ, PYTHONPATH=src), check=True,
        )


class TestVolumeFraction:
    def test_empty_disorder_fraction_exactly_one(self):
        real = build_realization(config_L10(nu=0.0))
        fraction, in_event, target = volume_fraction(real, eta=1e-12)
        assert fraction == 1.0
        assert in_event
        assert target == 1.0

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_volume_law_monte_carlo(self):
        # ensemble mean of the fraction approaches exp(-nu omega_d r^d)
        nu, r = 0.5, 0.6
        target = math.exp(-nu * math.pi * r**2)
        fractions = []
        for seed in range(1000):
            config = DisorderConfig(d=2, rho=1.0, N=36, nu=nu, r=r, h=0.3, seed=seed)
            fractions.append(volume_fraction(build_realization(config))[0])
        mean = np.mean(fractions)
        se = np.std(fractions, ddof=1) / math.sqrt(len(fractions))
        assert abs(mean - target) < 3.0 * se

    def test_grid_refinement_consistency(self):
        # fixed centers: halving h moves the fraction by O(h)
        base = dict(d=2, rho=1.0, N=36, nu=0.8, r=0.45, seed=13)
        centers = sample_centers(DisorderConfig(h=0.2, **base))
        fracs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            config = DisorderConfig(h=h, **base)
            fracs.append(volume_fraction(build_realization(config, centers))[0])
        d1 = abs(fracs[0] - fracs[1])
        d2 = abs(fracs[1] - fracs[2])
        d3 = abs(fracs[2] - fracs[3])
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log([d1, d2, d3]), 1)[0]
        assert 0.4 < slope < 2.5

    def test_d3_realization(self):
        config = DisorderConfig(d=3, rho=1.0, N=64, nu=0.2, r=0.5, h=0.4, seed=2)
        real = build_realization(config)
        assert real.mask.ndim == 3
        expected = brute_force_mask(config, real.centers)
        assert np.array_equal(real.mask, expected)
