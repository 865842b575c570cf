import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from srmusic.bounds import ClumpBoundTerms
from srmusic.fourier import hankel, spectral_norm
from srmusic.noise import (
    ConcentrationReport,
    NoiseSpec,
    ThresholdPreconditionError,
    concentration_constant,
    draw_noise,
    estimate_concentration,
    expectation_bound,
    noise_threshold,
    sample_noise,
    tail_bound,
    wilson_interval,
)


class TestSampleNoise:
    def test_reproducible_bit_for_bit(self):
        spec = NoiseSpec(sigma=0.7, kind="complex-circular", seed=123)
        a = sample_noise(spec, 50)
        b = sample_noise(spec, 50)
        assert np.array_equal(a, b)

    def test_real_kind_is_real(self):
        eta = sample_noise(NoiseSpec(sigma=1.0, kind="real", seed=0), 20)
        assert np.all(eta.imag == 0)

    def test_real_variance(self):
        # 10^4 samples: chi-square concentration keeps the sample variance
        # within 6% of sigma^2.
        sigma = 1.3
        eta = sample_noise(NoiseSpec(sigma=sigma, kind="real", seed=5), 10_000 - 1)
        var = float(np.var(eta.real))
        assert sigma**2 * 0.94 <= var <= sigma**2 * 1.06

    def test_complex_second_moment(self):
        sigma = 0.8
        eta = sample_noise(
            NoiseSpec(sigma=sigma, kind="complex-circular", seed=6), 10_000 - 1
        )
        moment = float(np.mean(np.abs(eta) ** 2))
        assert sigma**2 * 0.94 <= moment <= sigma**2 * 1.06

    def test_small_sigma_small_norm(self):
        eta = sample_noise(NoiseSpec(sigma=1e-12, kind="complex-circular", seed=0), 99)
        assert np.linalg.norm(eta) < 1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=1.0, kind="uniform")


class TestDrawNoise:
    def test_same_law_as_sample_noise(self):
        for kind in ("real", "complex-circular"):
            rng = np.random.default_rng((4, 2))
            eta = draw_noise(rng, 0.3, kind, 40)
            spec = NoiseSpec(sigma=0.3, kind=kind, seed=(4, 2))
            assert np.array_equal(eta, sample_noise(spec, 40))

    def test_zero_sigma_leaves_stream_untouched(self):
        rng = np.random.default_rng(9)
        eta = draw_noise(rng, 0.0, "real", 10)
        assert eta.dtype == complex and not eta.any()
        assert rng.uniform() == np.random.default_rng(9).uniform()

    def test_rejects_negative_sigma_and_unknown_kind(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="nonnegative"):
            draw_noise(rng, -0.1, "real", 10)
        with pytest.raises(ValueError, match="kind"):
            draw_noise(rng, 0.0, "uniform", 10)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"sigma must be nonnegative and finite, got {sigma}"):
            draw_noise(rng, sigma, "complex-circular", 10)
        assert rng.uniform() == np.random.default_rng(0).uniform()


class TestConcentrationConstant:
    def test_symmetric_midpoint(self):
        assert concentration_constant(10, 5) == 6

    def test_degenerate_l(self):
        assert concentration_constant(10, 0) == 11

    def test_odd_split(self):
        assert concentration_constant(9, 4) == 6

    def test_domain(self):
        with pytest.raises(ValueError):
            concentration_constant(10, 11)


class TestExpectationBound:
    def test_value(self):
        assert expectation_bound(1.0, 10, 5) == pytest.approx(5.460666607425874)

    def test_zero_sigma(self):
        assert expectation_bound(0.0, 10, 5) == 0.0

    def test_linear_in_sigma(self):
        assert expectation_bound(3.0, 100, 50) == pytest.approx(
            3.0 * expectation_bound(1.0, 100, 50)
        )


class TestTailBound:
    def test_vanishes_at_infinity(self):
        assert tail_bound(1e9, 1.0, 10, 5) == 0.0

    def test_equals_one_at_expectation_bound(self):
        # Substituting t = sigma*sqrt(2 C ln(M+2)) makes the exponential
        # exactly 1/(M+2), so the bound sits exactly at 1.
        sigma, M, L = 2.0, 10, 5
        t = expectation_bound(sigma, M, L)
        c = concentration_constant(M, L)
        raw = (M + 2) * math.exp(-(t * t) / (2 * sigma * sigma * c))
        assert raw == pytest.approx(1.0, rel=1e-12)
        assert tail_bound(t, sigma, M, L) == pytest.approx(1.0)

    def test_doubling_t_fourth_power(self):
        sigma, M, L = 1.0, 20, 7
        t = 9.0
        raw = (M + 2) * math.exp(
            -(t * t) / (2 * sigma * sigma * concentration_constant(M, L))
        )
        raw2 = (M + 2) * math.exp(
            -(4 * t * t) / (2 * sigma * sigma * concentration_constant(M, L))
        )
        assert raw2 == pytest.approx((M + 2) * (raw / (M + 2)) ** 4, rel=1e-9)

    def test_scale_invariance_in_t_over_sigma(self):
        assert tail_bound(3.0, 1.0, 30, 10) == pytest.approx(
            tail_bound(6.0, 2.0, 30, 10)
        )

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            tail_bound(0.0, 1.0, 10, 5)


class TestNoiseThreshold:
    def test_constant_factor(self):
        # Single point, unit constant: threshold is exactly C(M, nu)*eps with
        # C(100, 2) = 100/(32 sqrt(2*102*ln 102)).
        terms = ClumpBoundTerms((1.0,), (1,), alpha=0.5, M=100)
        value = noise_threshold(100, nu=2.0, epsilon=1.0, terms=terms)
        assert value == pytest.approx(0.10173733235973904)

    def test_linear_in_epsilon(self):
        terms = ClumpBoundTerms((1.0,), (1,), alpha=0.5, M=100)
        one = noise_threshold(100, nu=2.0, epsilon=1.0, terms=terms)
        two = noise_threshold(100, nu=2.0, epsilon=2.0, terms=terms)
        assert two == pytest.approx(2.0 * one)

    def test_alpha_exponent(self):
        terms = ClumpBoundTerms((1.0,), (2,), alpha=0.25, M=100)
        base = noise_threshold(100, nu=2.0, epsilon=1.0, terms=terms)
        ref = ClumpBoundTerms((1.0,), (1,), alpha=0.25, M=100)
        assert base == pytest.approx(
            noise_threshold(100, nu=2.0, epsilon=1.0, terms=ref) * 0.25**2
        )

    def test_lists_all_failed_hypotheses(self):
        terms = ClumpBoundTerms((1.0, 1.0), (2, 2), alpha=0.5, M=100)
        with pytest.raises(ThresholdPreconditionError) as err:
            noise_threshold(15, nu=0.5, epsilon=-1.0, terms=terms)
        message = str(err.value)
        assert "even" in message
        assert "2*S^2" in message
        assert "nu" in message
        assert "epsilon" in message


class TestWilsonInterval:
    def test_brackets_proportion(self):
        lo, hi = wilson_interval(90, 100)
        assert 0.0 <= lo < 0.9 < hi <= 1.0

    def test_all_or_nothing(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.2
        lo, hi = wilson_interval(50, 50)
        assert lo > 0.8 and hi == pytest.approx(1.0)

    def test_width_shrinks_with_trials(self):
        widths = []
        for n in (50, 200, 800):
            lo, hi = wilson_interval(round(0.9 * n), n)
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]


class TestEstimateConcentration:
    def test_bounds_hold_small_run(self):
        report, norms = estimate_concentration(
            sigma=1.0, M=60, L=30, kind="real", trials=200, base_seed=0
        )
        assert len(norms) == 200
        assert report.empirical_mean_norm <= report.expectation_bound
        assert report.empirical_tail_prob <= report.tail_bound

    def test_reproducible(self):
        r1, n1 = estimate_concentration(1.0, 40, 20, "complex-circular", 50, base_seed=3)
        r2, n2 = estimate_concentration(1.0, 40, 20, "complex-circular", 50, base_seed=3)
        assert np.array_equal(n1, n2)
        assert r1 == r2

    def test_norm_matches_direct_computation(self):
        spec = NoiseSpec(sigma=0.5, kind="real", seed=(7, 0))
        eta = sample_noise(spec, 40)
        direct = spectral_norm(hankel(eta, 20))
        _, norms = estimate_concentration(0.5, 40, 20, "real", trials=1, base_seed=7)
        assert norms[0] == pytest.approx(direct)

    def test_report_json_round_trip(self, tmp_path):
        report, _ = estimate_concentration(1.0, 30, 15, "real", trials=20, base_seed=0)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(asdict(report), indent=2) + "\n")
        loaded = json.loads(path.read_text())
        assert loaded["trials"] == 20
        assert loaded["kind"] == "real"
        assert loaded["empirical_mean_norm"] == report.empirical_mean_norm
