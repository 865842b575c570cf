import math
from dataclasses import replace

import numpy as np
import pytest

from srmusic.bounds import (
    ClumpBoundTerms,
    FitError,
    fit_clump_constants,
    fit_scaling_exponent,
    lower_bound_value,
    upper_bound_witness,
)
from srmusic.fourier import sigma_min, vandermonde
from srmusic.torus import ClumpSpec, SupportSet, generate_clumps

SWEEP_ALPHAS = (0.5, 0.35, 0.25, 0.18, 0.12, 0.08)


def progression(anchor, lam, alpha, M, extra=()):
    """lam points spaced alpha/M from anchor, plus optional extra points.

    Built directly (not via the clump generator) so sweeps may cross the
    alpha*(lam-1) < 1 model boundary, where the point set is still well
    defined even though it spans more than one 1/M window.
    """
    pts = [(anchor + k * alpha / M) % 1.0 for k in range(lam)]
    return SupportSet(pts + list(extra))


def clump_sigma_min(lam, alpha, M, anchor=0.0):
    return sigma_min(vandermonde(progression(anchor, lam, alpha, M), M))


class TestLowerBoundValue:
    def test_singleton_clump(self):
        terms = ClumpBoundTerms((1.0,), (1,), alpha=0.37, M=100)
        assert lower_bound_value(terms) == pytest.approx(10.0)

    def test_pair_clump(self):
        terms = ClumpBoundTerms((1.0,), (2,), alpha=0.5, M=100)
        assert lower_bound_value(terms) == pytest.approx(5.0)

    def test_two_clumps_l2_aggregate(self):
        terms = ClumpBoundTerms((1.0, 1.0), (2, 3), alpha=0.5, M=100)
        assert lower_bound_value(terms) == pytest.approx(10.0 / math.sqrt(20.0))

    def test_alpha_domain(self):
        terms = ClumpBoundTerms((1.0,), (2,), alpha=1.5, M=100)
        with pytest.raises(ValueError):
            lower_bound_value(terms)

    def test_terms_invariants(self):
        with pytest.raises(ValueError):
            ClumpBoundTerms((1.0,), (2, 3), alpha=0.5, M=100)
        with pytest.raises(ValueError):
            ClumpBoundTerms((0.0,), (2,), alpha=0.5, M=100)


class TestFitClumpConstants:
    def test_single_point_clump(self):
        M = 400
        spec = ClumpSpec(1, (1,), alpha=0.5, beta=1.0, M=M)
        terms = fit_clump_constants(spec, SWEEP_ALPHAS)
        assert terms.constants[0] == pytest.approx(
            math.sqrt(M) / math.sqrt(M + 1), rel=1e-9
        )

    def test_pair_constant_order_one(self):
        spec = ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=1000)
        terms = fit_clump_constants(spec, SWEEP_ALPHAS)
        assert 0.1 <= terms.constants[0] <= 10.0

    def test_bound_valid_on_samples(self):
        # Alphas keep alpha*(lam-1) < 1 so the generated sets are true clumps.
        M = 1000
        alphas = SWEEP_ALPHAS[1:]
        spec = ClumpSpec(1, (3,), alpha=0.35, beta=1.0, M=M)
        terms = fit_clump_constants(spec, alphas)
        for a in alphas:
            bound = lower_bound_value(replace(terms, alpha=a))
            assert bound <= clump_sigma_min(3, a, M) * (1 + 1e-12)

    def test_superset_never_decreases(self):
        spec = ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=500)
        small = fit_clump_constants(spec, SWEEP_ALPHAS[:4])
        large = fit_clump_constants(spec, SWEEP_ALPHAS)
        assert large.constants[0] >= small.constants[0]

    def test_one_constant_per_clump(self):
        # A constant depends on (size, M) only: each clump of a multi-clump
        # spec gets the constant of a single clump of its size.
        M = 1000
        spec = ClumpSpec(3, (2, 3, 2), alpha=0.35, beta=10.0, M=M)
        terms = fit_clump_constants(spec, SWEEP_ALPHAS[1:])
        single = {
            lam: fit_clump_constants(ClumpSpec(1, (lam,), alpha=0.35, beta=1.0, M=M),
                                     SWEEP_ALPHAS[1:]).constants[0]
            for lam in (2, 3)
        }
        assert terms.constants == (single[2], single[3], single[2])
        assert terms.clump_sizes == (2, 3, 2)
        assert (terms.alpha, terms.M) == (0.35, M)
        expected = max(math.sqrt(M) * a**2 / clump_sigma_min(3, a, M) for a in SWEEP_ALPHAS[1:])
        assert single[3] == pytest.approx(expected, rel=1e-12)

    def test_needs_single_clump_and_samples(self):
        spec = ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=100)
        with pytest.raises(FitError):
            fit_clump_constants(spec, (0.5, 0.25, 0.1))


class TestFitScalingExponent:
    def test_exact_power_law(self):
        alphas = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        fit = fit_scaling_exponent([(a, 7.0 * a**2) for a in alphas])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)
        assert fit.reliable

    def test_triple_clump_slope(self):
        M = 1000
        samples = [(a, clump_sigma_min(3, a, M)) for a in SWEEP_ALPHAS]
        fit = fit_scaling_exponent(samples)
        assert 1.7 <= fit.slope <= 2.3
        assert fit.r_squared >= 0.98

    def test_two_far_clumps_follow_largest(self):
        # [3, 1] far apart scales like the 3-clump (slope 2), not like S-1 = 3.
        M = 1000
        samples = []
        for a in SWEEP_ALPHAS:
            pts = [0.1 + k * a / M for k in range(3)] + [0.6]
            samples.append((a, sigma_min(vandermonde(SupportSet(pts), M))))
        fit = fit_scaling_exponent(samples)
        assert 1.7 <= fit.slope <= 2.3

    def test_input_validation(self):
        with pytest.raises(FitError):
            fit_scaling_exponent([(0.5, 1.0)] )
        with pytest.raises(ValueError):
            fit_scaling_exponent([(0.5, 1.0), (0.4, -1.0), (0.3, 1.0), (0.2, 1.0)])
        with pytest.raises(ValueError):
            fit_scaling_exponent([(1.5, 1.0), (0.4, 1.0), (0.3, 1.0), (0.2, 1.0)])


class TestUpperBoundWitness:
    def test_no_fillers_matches_generator(self):
        M = 400
        alpha = 0.04
        support, sm = upper_bound_witness(
            lam=2, alpha=alpha, M=M, S=2, omega0=0.3, filler_seed=0
        )
        gen_support, _ = generate_clumps(
            ClumpSpec(1, (2,), alpha=alpha, beta=1.0, M=M, anchors=(0.3,)), seed=0
        )
        assert support.points == pytest.approx(gen_support.points)
        assert sm == pytest.approx(sigma_min(vandermonde(gen_support, M)))

    def test_pair_sweep_slope_is_one(self):
        M = 400
        amax = (M + 1) ** -0.5
        alphas = np.geomspace(amax, amax / 8, 6)
        samples = []
        for i, a in enumerate(alphas):
            _, sm = upper_bound_witness(
                lam=2, alpha=float(a), M=M, S=2, omega0=0.3, filler_seed=i
            )
            samples.append((float(a), sm))
        fit = fit_scaling_exponent(samples)
        assert 0.8 <= fit.slope <= 1.2

    def test_bounded_at_regime_boundary(self):
        # With alpha pinned to (M+1)^(-1/2), sigma_min stays flat while
        # sqrt(M) grows fourfold; the fitted ceiling holds by construction.
        values = []
        for M in (2500, 10_000, 40_000):
            alpha = (M + 1) ** -0.5
            _, sm = upper_bound_witness(
                lam=2, alpha=alpha, M=M, S=4, omega0=0.3, filler_seed=1
            )
            values.append(sm)
        assert max(values) / min(values) < 1.5
        assert math.sqrt(40_000 / 2500) == pytest.approx(4.0)

    def test_fillers_respect_spacing(self):
        M = 200
        support, _ = upper_bound_witness(
            lam=2, alpha=0.05, M=M, S=6, omega0=0.1, filler_seed=3
        )
        pts = support.as_array()
        cluster = {0.1, 0.1 + 0.05 / M}
        fillers = [p for p in pts if not any(abs(p - c) < 1e-12 for c in cluster)]
        for f in fillers:
            for other in pts:
                if other != f:
                    d = abs(f - other)
                    assert min(d, 1 - d) >= min(2.0 / M, 0.05 / M) - 1e-12

    def test_warns_outside_regime(self):
        with pytest.warns(UserWarning, match="outside the regime"):
            upper_bound_witness(lam=2, alpha=0.5, M=400, S=2, omega0=0.0, filler_seed=0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            upper_bound_witness(lam=3, alpha=0.01, M=400, S=2, omega0=0.0, filler_seed=0)


class TestBoundSandwich:
    def test_lower_bound_below_exact_above_witness(self):
        M = 1000
        lam = 3
        spec = ClumpSpec(1, (lam,), alpha=0.35, beta=1.0, M=M)
        terms = fit_clump_constants(spec, SWEEP_ALPHAS[1:])
        witness_alphas = np.geomspace((M + 1) ** -0.5, (M + 1) ** -0.5 / 4, 4)
        witness = [
            upper_bound_witness(lam=lam, alpha=float(a), M=M, S=lam, omega0=0.2,
                                filler_seed=0)[1]
            for a in witness_alphas
        ]
        c_lam = max(w / a ** (lam - 1) for w, a in zip(witness, witness_alphas))
        for a in SWEEP_ALPHAS[1:]:
            exact = clump_sigma_min(lam, a, M)
            assert lower_bound_value(replace(terms, alpha=a)) <= exact * (1 + 1e-12)
        for w, a in zip(witness, witness_alphas):
            assert w <= c_lam * a ** (lam - 1) * (1 + 1e-12)


class TestMultiClumpAggregate:
    def test_l2_aggregate_within_factor(self):
        # Union sigma_min against (sum t_a^-2)^(-1/2) over isolated clumps.
        M = 2000
        alpha = 0.3
        specs = [
            ClumpSpec(1, (2,), alpha=alpha, beta=1.0, M=M, anchors=(0.05,)),
            ClumpSpec(1, (2,), alpha=alpha, beta=1.0, M=M, anchors=(0.55,)),
        ]
        parts = []
        merged = []
        for spec in specs:
            support, _ = generate_clumps(spec, seed=0)
            parts.append(sigma_min(vandermonde(support, M)))
            merged.extend(support.points)
        union = sigma_min(vandermonde(SupportSet(merged), M))
        aggregate = 1.0 / math.sqrt(sum(t**-2 for t in parts))
        assert 0.25 <= union / aggregate <= 4.0


class TestExponentDichotomy:
    def test_single_clump_tracks_total_sparsity(self):
        M = 1000
        samples = [(a, clump_sigma_min(4, a, M)) for a in SWEEP_ALPHAS]
        fit = fit_scaling_exponent(samples)
        assert abs(fit.slope - 3.0) <= 0.3

    def test_split_clumps_track_largest(self):
        M = 1000
        samples = []
        for a in SWEEP_ALPHAS:
            pts = [0.1 + k * a / M for k in range(3)] + [0.6]
            samples.append((a, sigma_min(vandermonde(SupportSet(pts), M))))
        fit = fit_scaling_exponent(samples)
        assert abs(fit.slope - 2.0) <= 0.3

    def test_split_clumps_with_certified_gap(self):
        # At M = 5000 the full inter-clump gap requirement
        # beta >= 20*sqrt(S)*lam^(5/2)/sqrt(alpha) fits on the circle
        # (it cannot at M = 1000, where it would need beta/M > 1/2).
        M = 5000
        samples = []
        for a in (0.45,) + SWEEP_ALPHAS[1:]:
            beta = 20.0 * math.sqrt(4) * 3**2.5 / math.sqrt(a)
            assert beta / M <= 0.5
            spec = ClumpSpec(2, (3, 1), alpha=a, beta=beta, M=M,
                             anchors=(0.0, 2 * a / M + beta / M + 1e-4))
            support, partition = generate_clumps(spec, seed=0)
            assert partition.clump_sizes == (3, 1)
            samples.append((a, sigma_min(vandermonde(support, M))))
        fit = fit_scaling_exponent(samples)
        assert abs(fit.slope - 2.0) <= 0.3
        assert fit.r_squared >= 0.98

