import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from srmusic.torus import (
    ClumpDiameterViolation,
    ClumpSpec,
    InfeasibleSpecError,
    InterClumpGapViolation,
    SeparationViolation,
    SupportSet,
    check_beta_condition,
    from_fields,
    generate_clumps,
    min_separation,
    super_resolution_factor,
    torus_distance,
    validate_clumps,
)

positions = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def brute_force_min_separation(points):
    return min(
        torus_distance(a, b) for a, b in itertools.combinations(points, 2)
    )


def brute_force_clump_distance(points, clumps):
    """Smallest wrap-around distance between points of different clumps."""
    return min(
        torus_distance(points[p], points[q])
        for a, b in itertools.combinations(clumps, 2)
        for p in a
        for q in b
    )


class TestTorusDistance:
    def test_direct(self):
        assert torus_distance(0.1, 0.3) == pytest.approx(0.2)

    def test_wraparound(self):
        assert torus_distance(0.9, 0.1) == pytest.approx(0.2)

    def test_identity(self):
        assert torus_distance(0.25, 0.25) == 0.0

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            torus_distance(1.0, 0.5)
        with pytest.raises(ValueError):
            torus_distance(0.5, -0.1)

    @given(positions, positions)
    def test_symmetry_and_bound(self, a, b):
        assert torus_distance(a, b) == torus_distance(b, a)
        assert 0.0 <= torus_distance(a, b) <= 0.5

    @given(positions, positions, positions)
    def test_triangle_inequality(self, a, b, c):
        assert torus_distance(a, c) <= torus_distance(a, b) + torus_distance(b, c) + 1e-12


class TestSupportSet:
    def test_sorts_input(self):
        s = SupportSet([0.9, 0.1, 0.5])
        assert s.points == (0.1, 0.5, 0.9)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SupportSet([0.1, 0.1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SupportSet([0.5, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SupportSet([])

    def test_round_trip_dict(self):
        s = SupportSet([0.2, 0.7])
        assert from_fields(SupportSet, asdict(s)) == s


class TestMinSeparation:
    def test_antipodal(self):
        assert min_separation(SupportSet([0.0, 0.5])) == pytest.approx(0.5)

    def test_adjacent_pair(self):
        assert min_separation(SupportSet([0.0, 0.1, 0.5])) == pytest.approx(0.1)

    def test_wrap_pair_matches_brute_force(self):
        pts = [0.95, 0.02, 0.5]
        # All-pairs oracle gives 0.07 via the wrap pair (0.95, 0.02).
        assert brute_force_min_separation(pts) == pytest.approx(0.07)
        assert min_separation(SupportSet(pts)) == pytest.approx(0.07)

    def test_single_point_undefined(self):
        with pytest.raises(ValueError):
            min_separation(SupportSet([0.3]))

    @given(st.lists(positions, min_size=2, max_size=8, unique=True))
    def test_matches_brute_force(self, pts):
        assert min_separation(SupportSet(pts)) == pytest.approx(
            brute_force_min_separation(pts)
        )

    @given(st.lists(positions, min_size=2, max_size=10, unique=True))
    def test_pigeonhole(self, pts):
        assert min_separation(SupportSet(pts)) <= 1.0 / len(pts) + 1e-12


class TestSuperResolutionFactor:
    def test_quarter_spacing(self):
        assert super_resolution_factor(100, 0.0025) == pytest.approx(4.0)

    def test_boundary(self):
        assert super_resolution_factor(50, 1 / 50) == pytest.approx(1.0)

    def test_well_separated(self):
        assert super_resolution_factor(1000, 0.01) == pytest.approx(0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            super_resolution_factor(0, 0.1)
        with pytest.raises(ValueError):
            super_resolution_factor(10, 0.6)


class TestGenerateClumps:
    def test_single_clump_progression(self):
        spec = ClumpSpec(1, (3,), alpha=0.2, beta=1.0, M=100, anchors=(0.0,))
        support, partition = generate_clumps(spec, seed=0)
        assert support.points == pytest.approx((0.0, 0.002, 0.004))
        assert partition.clump_sizes == (3,)

    def test_two_anchored_clumps(self):
        spec = ClumpSpec(2, (2, 2), alpha=0.5, beta=30.0, M=100, anchors=(0.0, 0.4))
        support, partition = generate_clumps(spec, seed=0)
        assert support.points == pytest.approx((0.0, 0.005, 0.4, 0.405))
        assert partition.clump_sizes == (2, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_anchors_validate(self, seed):
        # beta >= 20*sqrt(6)*3^(5/2)/sqrt(0.2) = 1707.63 fits at M = 10000.
        spec = ClumpSpec(2, (3, 3), alpha=0.2, beta=1708.0, M=10_000)
        support, partition = generate_clumps(spec, seed=seed)
        assert partition.clump_sizes == (3, 3)
        assert check_beta_condition(partition, support.size, spec.alpha).satisfied

    def test_infeasible_budget(self):
        spec = ClumpSpec(2, (2, 2), alpha=0.5, beta=60.0, M=100)
        with pytest.raises(InfeasibleSpecError, match="circumference"):
            generate_clumps(spec, seed=0)

    def test_seed_determinism(self):
        spec = ClumpSpec(3, (2, 1, 2), alpha=0.3, beta=5.0, M=200)
        s1, _ = generate_clumps(spec, seed=42)
        s2, _ = generate_clumps(spec, seed=42)
        assert s1.points == s2.points

    def test_jitter_stays_valid_at_degraded_alpha(self):
        spec = ClumpSpec(1, (4,), alpha=0.3, beta=1.0, M=100, jitter=1.0)
        support, partition = generate_clumps(spec, seed=7)
        assert partition.alpha == pytest.approx(0.225)  # 0.3 * (1 - 1/4)
        assert partition.clump_sizes == (4,)

    def test_wraparound_clump(self):
        spec = ClumpSpec(1, (3,), alpha=0.4, beta=1.0, M=100, anchors=(0.999,))
        support, partition = generate_clumps(spec, seed=0)
        assert partition.num_clumps == 1
        assert len(partition.clumps[0]) == 3


class TestValidateClumps:
    def test_round_trip(self):
        spec = ClumpSpec(2, (2, 3), alpha=0.25, beta=10.0, M=500)
        support, partition = generate_clumps(spec, seed=3)
        again = validate_clumps(support, 500, partition.alpha, partition.beta)
        assert again.clump_sizes == partition.clump_sizes

    def test_well_separated_singletons(self):
        part = validate_clumps(SupportSet([0.0, 0.3, 0.6]), M=10, alpha=1.0, beta=2.0)
        assert part.clump_sizes == (1, 1, 1)

    def test_close_pair_is_one_clump(self):
        # Delta*M = 0.1, so alpha up to 0.1 certifies; 0.05 works.
        part = validate_clumps(SupportSet([0.0, 0.001]), M=100, alpha=0.05, beta=1.0)
        assert part.clump_sizes == (2,)

    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_separation_violation(self, alpha):
        # Delta*M = 0.1 below alpha: the spacing promise fails.
        with pytest.raises(SeparationViolation):
            validate_clumps(SupportSet([0.0, 0.001]), M=100, alpha=alpha, beta=1.0)

    def test_gap_violation(self):
        with pytest.raises(InterClumpGapViolation):
            validate_clumps(SupportSet([0.0, 0.3]), M=10, alpha=1.0, beta=4.0)

    def test_diameter_violation(self):
        # Five points exactly 0.25/M apart fill a full 1/M window: the run is
        # one clump but alpha*(lam-1) = 1 breaks the spacing budget.
        pts = SupportSet([k * 0.025 for k in range(5)])
        with pytest.raises(ClumpDiameterViolation):
            validate_clumps(pts, M=10, alpha=0.25, beta=1.0)

    @given(st.lists(positions, min_size=2, max_size=12, unique=True),
           st.integers(min_value=2, max_value=40))
    def test_gap_check_matches_pairwise_scan(self, points, M):
        support = SupportSet(points)
        sep = min_separation(support)
        assume(sep > 1e-9)
        alpha = 0.5 * sep * M  # any clump then has alpha*(lam-1) <= 1/2
        partition = validate_clumps(support, M, alpha, beta=0.0)
        assume(partition.num_clumps >= 2)
        dist = brute_force_clump_distance(support.points, partition.clumps)
        validate_clumps(support, M, alpha, beta=dist * M * (1.0 - 1e-6))
        with pytest.raises(InterClumpGapViolation, match="apart"):
            validate_clumps(support, M, alpha, beta=dist * M * (1.0 + 1e-6))

    def test_rotation_covariance(self):
        spec = ClumpSpec(2, (2, 3), alpha=0.25, beta=10.0, M=500)
        support, partition = generate_clumps(spec, seed=9)
        for c in (0.17, 0.5, 0.93):
            rotated = SupportSet([(p + c) % 1.0 for p in support.points])
            again = validate_clumps(rotated, 500, partition.alpha, partition.beta)
            assert sorted(again.clump_sizes) == sorted(partition.clump_sizes)


class TestBetaCondition:
    def test_single_clump_vacuous(self):
        spec = ClumpSpec(1, (3,), alpha=0.2, beta=0.001, M=100, anchors=(0.1,))
        _, partition = generate_clumps(spec, seed=0)
        check = check_beta_condition(partition, 3, 0.2)
        assert check.satisfied

    def test_formula_two_pairs(self):
        # 20*sqrt(4)*2^(5/2)/sqrt(0.25) = 40*5.656854/0.5
        spec = ClumpSpec(2, (2, 2), alpha=0.25, beta=500.0, M=10_000)
        _, partition = generate_clumps(spec, seed=0)
        check = check_beta_condition(partition, 4, 0.25)
        assert check.required_beta == pytest.approx(452.54833995939043)
        assert check.satisfied

    def test_formula_two_singletons(self):
        # 20*sqrt(2)*1/1
        spec = ClumpSpec(2, (1, 1), alpha=1.0, beta=20.0, M=100)
        _, partition = generate_clumps(spec, seed=0)
        check = check_beta_condition(partition, 2, 1.0)
        assert check.required_beta == pytest.approx(28.284271247461902)
        assert not check.satisfied


class TestClumpSpecJson:
    def test_round_trip(self):
        spec = ClumpSpec(2, (2, 3), alpha=0.25, beta=10.0, M=500, jitter=0.5)
        assert from_fields(ClumpSpec, json.loads(json.dumps(asdict(spec)))) == spec

    def test_optional_fields_default(self):
        spec = from_fields(
            ClumpSpec,
            {"num_clumps": 1, "clump_sizes": [2], "alpha": 0.5, "beta": 1.0, "M": 10}
        )
        assert spec.anchors is None
        assert spec.jitter == 0.0

    def test_unknown_and_missing_keys_rejected(self):
        d = asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=10))
        with pytest.raises(ValueError, match="unknown ClumpSpec keys: jiter"):
            from_fields(ClumpSpec, {**d, "jiter": 0.5})
        del d["beta"]
        with pytest.raises(ValueError, match="ClumpSpec is missing: beta"):
            from_fields(ClumpSpec, d)

    def test_invariant_checks(self):
        with pytest.raises(ValueError):
            ClumpSpec(1, (2, 3), alpha=0.5, beta=1.0, M=10)
        with pytest.raises(ValueError):
            ClumpSpec(1, (3,), alpha=0.6, beta=1.0, M=10)  # 0.6*2 > 1
        with pytest.raises(ValueError):
            ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=10, anchors=(1.2,))

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf), (0.0, 1.0),
    ])
    def test_alpha_and_beta_positive_and_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta must be positive and finite"):
            ClumpSpec(2, (2, 2), alpha=alpha, beta=beta, M=10)
