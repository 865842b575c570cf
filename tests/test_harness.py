import csv
import json
import re

import numpy as np
import pytest

from srmusic import fourier
from srmusic.harness import (
    AmplitudeModel,
    ExperimentConfig,
    ExperimentRecord,
    concentration_summary,
    run_experiment,
    save_records,
    summarize,
)
from srmusic.noise import wilson_interval
from srmusic.torus import ClumpSpec


def pair_spec(M=100, alpha=0.5, beta=1.0):
    return ClumpSpec(1, (2,), alpha=alpha, beta=beta, M=M)


class TestAmplitudeModel:
    def test_unit(self):
        x = AmplitudeModel("unit").sample(np.random.default_rng(0), 4)
        assert np.array_equal(x, np.ones(4, dtype=complex))

    def test_random_phase_unit_modulus(self):
        x = AmplitudeModel("random-phase-unit").sample(np.random.default_rng(1), 6)
        assert np.allclose(np.abs(x), 1.0)

    def test_random_modulus_range(self):
        model = AmplitudeModel("random-modulus", modulus_range=(0.5, 2.0))
        x = model.sample(np.random.default_rng(2), 100)
        assert np.all(np.abs(x) >= 0.5 - 1e-12)
        assert np.all(np.abs(x) <= 2.0 + 1e-12)
        assert model.nominal_x_min == 0.5

    def test_json_round_trip(self):
        for model in (
            AmplitudeModel("unit"),
            AmplitudeModel("random-modulus", modulus_range=(0.5, 2.0)),
        ):
            assert AmplitudeModel.from_dict(model.to_dict()) == model

    def test_validation(self):
        with pytest.raises(ValueError):
            AmplitudeModel("gaussian")
        with pytest.raises(ValueError):
            AmplitudeModel("random-modulus")

    @pytest.mark.parametrize("hi", [np.inf, np.nan])
    def test_non_finite_modulus_rejected(self, hi):
        with pytest.raises(ValueError, match=re.escape(f"bad modulus range (0.5, {hi})")):
            AmplitudeModel("random-modulus", modulus_range=(0.5, hi))

    @pytest.mark.parametrize("d, message", [
        (None, "amplitude_model must be a kind"),
        ({"kind": "random-modulus"}, "amplitude_model must be a kind"),
        ({"kind": "random-modulus", "range": [0.5]},
         "AmplitudeModel key 'modulus_range' must be tuple[float, float] | None, got [0.5]"),
        ({"kind": "random-modulus", "range": [0.5, "2"]}, "key 'modulus_range'"),
    ])
    def test_from_dict_rejects_wrong_json(self, d, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AmplitudeModel.from_dict(d)


class TestExperimentConfig:
    def test_round_trip(self):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(),
            alphas=(0.5, 0.4),
            sigmas=(0.0, 0.1),
            trials_per_cell=2,
            base_seed=7,
        )
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config
        assert again.config_hash() == config.config_hash()

    def test_missing_fields_reported(self):
        with pytest.raises(ValueError, match="alphas"):
            ExperimentConfig(kind="sigma-min-sweep", clump_spec=pair_spec())
        with pytest.raises(ValueError, match="clump_spec"):
            ExperimentConfig(kind="phase-transition", alphas=(0.5,), sigmas=(0.1,))
        with pytest.raises(ValueError, match="S"):
            ExperimentConfig(
                kind="upper-bound-sweep", clump_spec=pair_spec(), alphas=(0.04,)
            )

    @pytest.mark.parametrize("kind", ["perturbation-check", "concentration", "phase-transition",
                                      "sigma-min-sweep"])
    def test_negative_sigma_rejected(self, kind):
        with pytest.raises(ValueError, match="sigmas must be nonnegative"):
            ExperimentConfig(kind=kind, clump_spec=pair_spec(), alphas=(0.5,),
                             sigmas=(0.1, -0.1), M=30, L=15)

    @pytest.mark.parametrize("kind", ["perturbation-check", "concentration", "phase-transition"])
    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_non_finite_sigma_rejected(self, kind, sigma):
        with pytest.raises(ValueError, match=re.escape(
                f"sigmas must be nonnegative and finite, got [0.1, {sigma}]")):
            ExperimentConfig(kind=kind, clump_spec=pair_spec(), alphas=(0.5,),
                             sigmas=(0.1, sigma), M=30, L=15)

    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match=re.escape(
                f"alphas entry {alpha}: alpha and beta must be positive and finite")):
            ExperimentConfig(kind="phase-transition", clump_spec=pair_spec(),
                             alphas=(0.5, alpha), sigmas=(0.1,))

    @pytest.mark.parametrize("fields, message", [
        (dict(kind="phase-transition", clump_spec=pair_spec(), alphas=(0.5, 0.4, 0.5),
              sigmas=(0.1,)), "alphas repeats the value 0.5"),
        (dict(kind="phase-transition", clump_spec=pair_spec(), alphas=(0.5,),
              sigmas=(0.0, 0.1, 0.0)), "sigmas repeats the value 0.0"),
        (dict(kind="concentration", M=30, L=15, sigmas=(1.0, 1.0)),
         "sigmas repeats the value 1.0"),
    ])
    def test_repeated_grid_value_rejected(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(**fields)
        ExperimentConfig(**{**fields, "alphas": tuple(set(fields.get("alphas", ()))),
                            "sigmas": tuple(set(fields["sigmas"]))})

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(ValueError, match="noise_kind"):
            ExperimentConfig(kind="phase-transition", clump_spec=pair_spec(),
                             alphas=(0.5,), sigmas=(0.1,), noise_kind="uniform")

    def test_m_must_match_clump_spec(self):
        with pytest.raises(ValueError, match="M = 100 disagrees with clump_spec M = 50"):
            ExperimentConfig(kind="phase-transition", clump_spec=pair_spec(M=50),
                             alphas=(0.5,), sigmas=(0.0,), M=100)
        config = ExperimentConfig(kind="phase-transition", clump_spec=pair_spec(M=50),
                                  alphas=(0.5,), sigmas=(0.0,), M=50)
        assert config.resolved_m == 50

    @pytest.mark.parametrize("kind, N, message", [
        ("concentration", 0, "N must be at least 1, got 0"),
        ("perturbation-check", 0, "N must be at least 1, got 0"),
        ("phase-transition", -3, "N must be at least 1, got -3"),
        ("phase-transition", 799, "grid resolution 799 below 8*M = 800"),
        ("concentration", 7, "concentration has no imaging grid, so N must be null, got 7"),
        ("sigma-min-sweep", 1600, "sigma-min-sweep has no imaging grid, so N must be null"),
        ("upper-bound-sweep", 1600, "upper-bound-sweep has no imaging grid, so N must be null"),
    ])
    def test_bad_grid_size_rejected(self, kind, N, message):
        # The sweeps build no Hankel matrix, so they take no L either.
        fields = dict(kind=kind, clump_spec=pair_spec(M=100), alphas=(0.5,), sigmas=(0.1,),
                      M=100, L=None if kind.endswith("-sweep") else 50, S=3)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(**fields, N=N)
        # The smallest grid each kind accepts: music's 8*M for phase-transition,
        # 1 for perturbation-check, and only a null N for the kinds without a grid.
        ExperimentConfig(**fields, N={"phase-transition": 800,
                                      "perturbation-check": 1}.get(kind))

    @pytest.mark.parametrize("kind", ["sigma-min-sweep", "upper-bound-sweep"])
    def test_split_size_rejected_on_sweeps(self, kind):
        # L would enter the config hash, and so the run directory, unread.
        fields = dict(kind=kind, clump_spec=pair_spec(M=100), alphas=(0.5,), S=3)
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} has no Hankel matrix, so L must be null, got 7")):
            ExperimentConfig(**fields, L=7)
        assert ExperimentConfig(**fields).L is None

    def test_defaults_resolved(self):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(M=120),
            alphas=(0.5,),
            sigmas=(0.0,),
        )
        assert config.resolved_m == 120
        assert config.resolved_l == 60
        assert config.resolved_n == 1920

    def test_load_accepts_manifest(self, tmp_path):
        config = ExperimentConfig(
            kind="concentration", M=30, L=15, sigmas=(1.0,), trials_per_cell=3
        )
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"artifact": "x", "config": config.to_dict()}))
        assert ExperimentConfig.load(path) == config

    def test_schema_checked(self):
        with pytest.raises(ValueError, match="schema"):
            ExperimentConfig.from_dict({"schema": 99, "kind": "concentration"})


class TestRunExperimentCounts:
    def test_phase_transition_grid(self):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(M=50),
            alphas=(0.5, 0.4),
            sigmas=(0.0, 0.05, 0.2),
            trials_per_cell=2,
        )
        records = run_experiment(config)
        assert len(records) == 2 * 3 * 2

    def test_concentration_grid(self):
        config = ExperimentConfig(
            kind="concentration", M=30, L=15, sigmas=(0.5, 1.0), trials_per_cell=4
        )
        records = run_experiment(config)
        assert len(records) == 8
        assert all(r.values["hankel_norm"] > 0 for r in records)

    def test_sweep_count_and_bounds(self):
        config = ExperimentConfig(
            kind="sigma-min-sweep",
            clump_spec=pair_spec(M=200),
            alphas=(0.5, 0.35, 0.25, 0.18),
            trials_per_cell=2,
        )
        records = run_experiment(config)
        assert len(records) == 8
        for r in records:
            assert r.values["lower_bound"] <= r.values["sigma_min_exact"] * (1 + 1e-12)

    def test_upper_sweep_ceiling(self):
        config = ExperimentConfig(
            kind="upper-bound-sweep",
            clump_spec=pair_spec(M=400, alpha=0.04),
            alphas=(0.045, 0.03, 0.02, 0.012),
            S=3,
            trials_per_cell=2,
        )
        records = run_experiment(config)
        assert len(records) == 8
        for r in records:
            assert r.values["sigma_min_exact"] <= r.values["upper_bound"] * (1 + 1e-12)


class TestDeterminism:
    def test_records_reproducible(self):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(M=50),
            alphas=(0.5,),
            sigmas=(0.1,),
            trials_per_cell=3,
            base_seed=11,
        )
        a = run_experiment(config)
        b = run_experiment(config)
        for ra, rb in zip(a, b):
            assert ra.seed == rb.seed
            assert ra.values["matched_error"] == rb.values["matched_error"]
            assert ra.values["success"] == rb.values["success"]

    def test_jobs_do_not_change_results(self):
        config = ExperimentConfig(
            kind="perturbation-check",
            clump_spec=pair_spec(M=60),
            sigmas=(0.05, 0.2),
            trials_per_cell=3,
        )
        seq = run_experiment(config, jobs=1)
        par = run_experiment(config, jobs=4)
        for ra, rb in zip(seq, par):
            assert ra.seed == rb.seed
            assert ra.values["sup_diff"] == rb.values["sup_diff"]
            assert ra.values["wedin_bound"] == rb.values["wedin_bound"]

    def test_csv_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            kind="concentration", M=40, L=20, sigmas=(1.0,), trials_per_cell=5
        )
        p1 = save_records(run_experiment(config), config, tmp_path / "a")
        p2 = save_records(run_experiment(config), config, tmp_path / "b")
        assert p1["csv"].read_bytes() == p2["csv"].read_bytes()
        assert p1["summary"].read_bytes() == p2["summary"].read_bytes()


class TestNoiselessPhaseTransition:
    def test_all_cells_succeed_up_to_srf_2p5(self):
        # SRF in {1.25, 2, 2.5} at M = 100 and sigma = 0: exact recovery.
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(M=100),
            alphas=(0.8, 0.5, 0.4),
            sigmas=(0.0,),
            trials_per_cell=1,
        )
        records = run_experiment(config)
        assert all(r.values["success"] for r in records)


class TestPerturbationCampaign:
    def test_bound_never_violated_when_ok(self):
        config = ExperimentConfig(
            kind="perturbation-check",
            clump_spec=ClumpSpec(2, (1, 1), alpha=20.0, beta=30.0, M=100),
            sigmas=(0.1, 0.5),
            trials_per_cell=10,
        )
        records = run_experiment(config)
        ok = [r for r in records if r.values["precondition_ok"]]
        assert ok, "expected some precondition-ok trials at these noise levels"
        assert all(r.values["sup_diff"] <= r.values["wedin_bound"] for r in ok)
        assert all(r.values["success"] for r in ok)

    def test_zero_sigma_above_the_cutoff(self):
        # At M = 800 the 401 x 401 noise Hankel is a HankelOperator; at
        # sigma = 0 its norm is exactly 0, as on the dense path.
        config = ExperimentConfig(
            kind="perturbation-check",
            clump_spec=pair_spec(M=800),
            sigmas=(0.0, 0.1),
            trials_per_cell=1,
        )
        zero, noisy = run_experiment(config)
        assert zero.error == noisy.error == ""
        assert zero.values["hankel_noise_norm"] == 0.0
        assert zero.values["wedin_bound"] == 0.0 and zero.values["precondition_ok"]
        assert noisy.values["hankel_noise_norm"] > 0.0


class TestSummaries:
    def test_phase_transition_table(self):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(M=50),
            alphas=(0.5, 0.4),
            sigmas=(0.0, 5.0),
            trials_per_cell=4,
        )
        table = summarize(run_experiment(config), config)["table"]
        assert table["srf"] == (2.0, 2.5)
        assert table["sigma_over_xmin"] == (0.0, 5.0)
        assert table["success_rate"][0][0] == 1.0
        assert table["level90"][0] is not None
        assert table["trials_per_cell"] == 4
        assert table["success_rule"] == "match_supports < alpha/(2M)"

    def test_all_success_gives_ones(self):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(M=50),
            alphas=(0.5,),
            sigmas=(0.0, 1e-9),
            trials_per_cell=2,
        )
        table = summarize(run_experiment(config), config)["table"]
        assert all(rate == 1.0 for row in table["success_rate"] for rate in row)
        assert table["level90"] == (1e-9,)

    def test_monotone_in_sigma_up_to_wilson_noise(self):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(M=60),
            alphas=(0.5,),
            sigmas=(0.001, 0.05, 0.3, 1.5, 6.0),
            trials_per_cell=8,
        )
        table = summarize(run_experiment(config), config)["table"]
        n = table["trials_per_cell"]
        for row in table["success_rate"]:
            for a, b in zip(row, row[1:]):
                lo_next = wilson_interval(round(b * n), n)[0]
                hi_prev = wilson_interval(round(a * n), n)[1]
                assert lo_next <= hi_prev

    def test_perturbation_table_counts_epsilon_stable_trials(self):
        # Per sigma: the share of trials with sup_diff <= epsilon, where a
        # trial that recorded an error fails; sigma is divided by x_min.
        config = ExperimentConfig(
            kind="perturbation-check",
            clump_spec=pair_spec(M=50, alpha=0.4),
            sigmas=(0.1, 0.2),
            epsilon=0.3,
            amplitude_model=AmplitudeModel("random-modulus", modulus_range=(0.5, 1.0)),
        )

        def record(sigma, sup_diff, error=""):
            values = {"success": False} if error else {"sup_diff": sup_diff}
            return ExperimentRecord(0.4, sigma, 0, "0", values, error)

        records = [record(0.1, 0.1), record(0.1, 0.3), record(0.1, 0.0, "LinAlgError: x"),
                   record(0.2, 0.31), record(0.2, 0.2), record(0.2, 0.0)]
        table = summarize(records, config)["table"]
        assert table["srf"] == (2.5,)
        assert table["sigma_over_xmin"] == (0.2, 0.4)
        assert table["success_rate"] == ((2 / 3, 2 / 3),)
        assert table["level90"] == (None,)
        assert table["trials_per_cell"] == 3
        assert table["success_rule"] == "sup_diff <= epsilon = 0.3"

    def test_concentration_summary_reports(self):
        config = ExperimentConfig(
            kind="concentration", M=30, L=15, sigmas=(0.5, 2.0), trials_per_cell=20,
            noise_kind="real",
        )
        records = run_experiment(config)
        reports = concentration_summary(records, config)
        assert len(reports) == 2
        assert reports[0].kind == "real"
        assert reports[0].trials == 20
        # Homogeneity: bounds scale linearly in sigma.
        assert reports[1].expectation_bound == pytest.approx(
            4.0 * reports[0].expectation_bound
        )

    def test_sweep_summary_slope(self):
        config = ExperimentConfig(
            kind="sigma-min-sweep",
            clump_spec=pair_spec(M=500),
            alphas=(0.5, 0.35, 0.25, 0.18, 0.12),
            trials_per_cell=1,
        )
        records = run_experiment(config)
        summary = summarize(records, config)
        assert summary["expected_slope"] == 1
        assert abs(summary["slope"] - 1.0) <= 0.3

    def test_empty_summary_rejected(self):
        config = ExperimentConfig(kind="phase-transition", clump_spec=pair_spec(M=50),
                                  alphas=(0.5,), sigmas=(0.0,))
        with pytest.raises(ValueError):
            summarize([], config)


class TestNoiseThresholdEndToEnd:
    def test_below_threshold_perturbation_and_recovery(self):
        # Calibrate the clump constant, evaluate the admissible noise level
        # for an epsilon-stable correlation function, and check that running
        # at that level keeps both the sup-norm perturbation within epsilon
        # and support recovery within alpha/(2M) in >= 90% of trials.
        from srmusic.bounds import fit_clump_constants
        from srmusic.noise import noise_threshold

        M, eps, nu = 100, 0.5, 2.0
        spec = pair_spec(M=M, alpha=0.5)
        terms = fit_clump_constants(spec, (0.5, 0.4, 0.3, 0.2, 0.1))
        sigma = noise_threshold(M, nu=nu, epsilon=eps, terms=terms)
        assert 0.001 < sigma < 1.0

        pert = ExperimentConfig(
            kind="perturbation-check",
            clump_spec=spec,
            sigmas=(sigma,),
            trials_per_cell=20,
            base_seed=2,
            epsilon=eps,
        )
        assert summarize(run_experiment(pert), pert)["table"]["level90"] == (sigma,)

        phase = ExperimentConfig(
            kind="phase-transition",
            clump_spec=spec,
            alphas=(0.5,),
            sigmas=(sigma,),
            trials_per_cell=20,
            base_seed=3,
        )
        assert summarize(run_experiment(phase), phase)["table"]["level90"] == (sigma,)


class TestPerCellFailureIsolation:
    def test_error_recorded_not_raised(self, monkeypatch):
        import srmusic.harness as harness

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic SVD failure")

        monkeypatch.setattr(harness, "music_estimate", boom)
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=pair_spec(M=50),
            alphas=(0.5,),
            sigmas=(0.0,),
            trials_per_cell=2,
        )
        records = run_experiment(config)
        assert len(records) == 2
        assert all(not r.values["success"] for r in records)
        assert all("LinAlgError" in r.error for r in records)

    def test_failed_row_bytes(self, monkeypatch, tmp_path):
        import srmusic.harness as harness

        def boom(*args, **kwargs):
            raise ValueError('bad, "quoted" text')

        monkeypatch.setattr(harness, "music_estimate", boom)
        config = ExperimentConfig(kind="phase-transition", clump_spec=pair_spec(M=50),
                                  alphas=(0.5,), sigmas=(0.0,))
        path = save_records(run_experiment(config), config, tmp_path)["csv"]
        assert path.read_bytes().split(b"\r\n")[1] == (
            b'0.5,2.0,0.0,0,0-0-0-0,,false,"ValueError: bad, ""quoted"" text"'
        )


TINY_CONFIGS = {
    "sigma-min-sweep": dict(clump_spec=pair_spec(M=60), alphas=(0.5, 0.35, 0.25, 0.18),
                            trials_per_cell=2),
    "upper-bound-sweep": dict(clump_spec=pair_spec(M=100, alpha=0.04), alphas=(0.08, 0.04),
                              S=3, trials_per_cell=2),
    "perturbation-check": dict(clump_spec=pair_spec(M=40), sigmas=(0.05, 0.2),
                               trials_per_cell=2),
    "concentration": dict(M=30, L=15, sigmas=(0.5, 1.0), trials_per_cell=3),
    "phase-transition": dict(clump_spec=pair_spec(M=40), alphas=(0.5, 0.4),
                             sigmas=(0.0, 0.1), trials_per_cell=2),
}

SWEEP_HEADER = "alpha,M,S,lambda_max,A,sigma_min_exact,lower_bound,upper_bound,seed"
CSV_HEADERS = {
    "sigma-min-sweep": SWEEP_HEADER,
    "upper-bound-sweep": SWEEP_HEADER,
    "perturbation-check": "alpha,sigma,trial,seed,hankel_noise_norm,sigma_min_L,"
                          "sigma_min_ML,x_min,sup_diff,wedin_bound,precondition_ok,"
                          "success,error",
    "concentration": "sigma,trial,seed,hankel_norm",
    "phase-transition": "alpha,srf,sigma,trial,seed,matched_error,success,error",
}


class TestCampaignTable:
    @pytest.mark.parametrize("kind", sorted(TINY_CONFIGS))
    def test_header_and_jobs_independence(self, kind, tmp_path):
        config = ExperimentConfig(kind=kind, base_seed=3, **TINY_CONFIGS[kind])
        p1 = save_records(run_experiment(config, jobs=1), config, tmp_path / "j1")
        p2 = save_records(run_experiment(config, jobs=2), config, tmp_path / "j2")
        assert p1["csv"].read_text().splitlines()[0] == CSV_HEADERS[kind]
        assert p1["csv"].read_bytes() == p2["csv"].read_bytes()
        assert p1["summary"].read_bytes() == p2["summary"].read_bytes()

    @pytest.mark.parametrize("kind, fields", [
        ("perturbation-check", dict(sigmas=(0.01, 0.1))),
        ("phase-transition", dict(alphas=(0.5,), sigmas=(0.0, 0.05))),
    ])
    def test_jobs_independence_above_cutoff(self, kind, fields, tmp_path, monkeypatch):
        # At M = 800 each Hankel matrix is 401 x 401, above DENSE_MAX, so the
        # splits and norms come from Golub-Kahan, here in two threads at once.
        iterated = []

        def spy(H, S, tol):
            ritz = golub_kahan(H, S, tol)
            iterated.append(ritz is not None)
            return ritz

        golub_kahan = fourier._golub_kahan
        monkeypatch.setattr(fourier, "_golub_kahan", spy)
        config = ExperimentConfig(kind=kind, base_seed=3, clump_spec=pair_spec(M=800),
                                  trials_per_cell=2, **fields)
        p1 = save_records(run_experiment(config, jobs=1), config, tmp_path / "j1")
        p2 = save_records(run_experiment(config, jobs=2), config, tmp_path / "j2")
        assert iterated and all(iterated)
        with open(p1["csv"], newline="") as fh:
            assert [row["error"] for row in csv.DictReader(fh)] == [""] * 4
        assert p1["csv"].read_bytes() == p2["csv"].read_bytes()
        assert p1["summary"].read_bytes() == p2["summary"].read_bytes()

    # (alpha, sigma, trial, seed) of each record in order: cells run over
    # (alpha index, sigma index, trial), an index is 0 on an axis the kind
    # does not require, alpha is the spec's there and sigma None, and cell
    # (ia, isig, t) draws from the seed (base_seed, ia, isig, t).
    CELL_COORDINATES = {
        "sigma-min-sweep": [
            (0.5, None, 0, "3-0-0-0"), (0.5, None, 1, "3-0-0-1"),
            (0.35, None, 0, "3-1-0-0"), (0.35, None, 1, "3-1-0-1"),
            (0.25, None, 0, "3-2-0-0"), (0.25, None, 1, "3-2-0-1"),
            (0.18, None, 0, "3-3-0-0"), (0.18, None, 1, "3-3-0-1"),
        ],
        "upper-bound-sweep": [
            (0.08, None, 0, "3-0-0-0"), (0.08, None, 1, "3-0-0-1"),
            (0.04, None, 0, "3-1-0-0"), (0.04, None, 1, "3-1-0-1"),
        ],
        "perturbation-check": [
            (0.5, 0.05, 0, "3-0-0-0"), (0.5, 0.05, 1, "3-0-0-1"),
            (0.5, 0.2, 0, "3-0-1-0"), (0.5, 0.2, 1, "3-0-1-1"),
        ],
        "concentration": [
            (None, 0.5, 0, "3-0-0-0"), (None, 0.5, 1, "3-0-0-1"), (None, 0.5, 2, "3-0-0-2"),
            (None, 1.0, 0, "3-0-1-0"), (None, 1.0, 1, "3-0-1-1"), (None, 1.0, 2, "3-0-1-2"),
        ],
        "phase-transition": [
            (0.5, 0.0, 0, "3-0-0-0"), (0.5, 0.0, 1, "3-0-0-1"),
            (0.5, 0.1, 0, "3-0-1-0"), (0.5, 0.1, 1, "3-0-1-1"),
            (0.4, 0.0, 0, "3-1-0-0"), (0.4, 0.0, 1, "3-1-0-1"),
            (0.4, 0.1, 0, "3-1-1-0"), (0.4, 0.1, 1, "3-1-1-1"),
        ],
    }

    @pytest.mark.parametrize("kind", sorted(TINY_CONFIGS))
    def test_cell_coordinates(self, kind):
        config = ExperimentConfig(kind=kind, base_seed=3, **TINY_CONFIGS[kind])
        records = run_experiment(config, jobs=2)
        assert [(r.alpha, r.sigma, r.trial, r.seed) for r in records] == \
            self.CELL_COORDINATES[kind]

    @pytest.mark.parametrize("kind", sorted(TINY_CONFIGS))
    def test_threads_only_for_dense_split_kinds(self, kind, monkeypatch):
        import srmusic.harness as harness

        pools = []

        class SpyPool(harness.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", SpyPool)
        run_experiment(ExperimentConfig(kind=kind, **TINY_CONFIGS[kind]), jobs=2)
        assert len(pools) == (kind in ("perturbation-check", "phase-transition"))

    def test_sigma_min_sweep_row(self, tmp_path):
        config = ExperimentConfig(kind="sigma-min-sweep", **TINY_CONFIGS["sigma-min-sweep"])
        records = run_experiment(config)
        first = records[0].values
        lines = save_records(records, config, tmp_path)["csv"].read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert lines[1] == (f"0.5,60,2,2,1,{first['sigma_min_exact']!r},"
                            f"{first['lower_bound']!r},,0-0-0-0")

