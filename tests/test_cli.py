import csv
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from srmusic.cli import CAMPAIGN_COMMANDS, _usable_cpus, build_parser, main
from srmusic.harness import ExperimentConfig
from srmusic.music import load_measurements, save_measurements
from srmusic.torus import ClumpSpec, SupportSet, from_fields
from srmusic.fourier import vandermonde


@pytest.fixture
def two_point_synth(tmp_path):
    spec = {
        "schema": 1,
        "support": {"points": [0.2, 0.7]},
        "M": 100,
        "amplitude_model": "unit",
        "sigma": 0.0,
    }
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(spec))
    return path


def assert_manifest_options(out_dir, argv, **resolved):
    """options is the parsed namespace without subcommand and func, in argparse
    order, with the values the command resolved in place."""
    parsed = vars(build_parser().parse_args(argv))
    expected = [(key, resolved.pop(key, value)) for key, value in parsed.items()
                if key not in ("subcommand", "func")]
    assert not resolved, f"resolved values that are not options: {resolved}"
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    assert list(manifest["options"].items()) == expected
    assert manifest["seed"] == manifest["options"].get("seed")


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["sigma-min", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required(self, capsys):
        assert main(["sigma-min"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestGenSupport:
    def test_writes_support_and_manifest(self, tmp_path, capsys):
        spec = ClumpSpec(2, (2, 2), alpha=0.5, beta=10.0, M=100)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(asdict(spec)))
        out = tmp_path / "run"
        argv = ["gen-support", "--spec", str(spec_path), "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        assert_manifest_options(out, argv)
        support = from_fields(SupportSet, json.loads((out / "support.json").read_text()))
        assert support.size == 4
        assert (out / "support.json").read_text() == json.dumps({"points": [
            0.08021208145920933, 0.08521208145920933, 0.8012744652063969, 0.8062744652063969,
        ]}, indent=2) + "\n"
        assert (out / "partition.json").read_text() == json.dumps({
            "clumps": [[2, 3], [0, 1]], "M": 100, "S": 4, "alpha": 0.5, "beta": 10.0,
        }, indent=2) + "\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "gen-support"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == ["support.json", "partition.json"]
        assert manifest["config"] == {"num_clumps": 2, "clump_sizes": [2, 2], "alpha": 0.5,
                                      "beta": 10.0, "M": 100, "anchors": None, "jitter": 0.0}

    def test_infeasible_spec_exit_one(self, tmp_path, capsys):
        spec = ClumpSpec(2, (2, 2), alpha=0.5, beta=60.0, M=100)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(asdict(spec)))
        assert main(["gen-support", "--spec", str(spec_path),
                     "--out", str(tmp_path / "run")]) == 1


class TestSigmaMin:
    def test_value_written(self, tmp_path, capsys):
        support_path = tmp_path / "omega.json"
        support_path.write_text(json.dumps({"points": [0.25]}))
        out = tmp_path / "run"
        argv = ["sigma-min", "--support", str(support_path), "--M", "100", "--out", str(out)]
        assert main(argv) == 0
        assert_manifest_options(out, argv)
        data = json.loads((out / "sigma_min.json").read_text())
        assert data["sigma_min"] == pytest.approx(np.sqrt(101.0))
        assert "sigma_min" in capsys.readouterr().out

    def test_numerical_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        import srmusic.cli as cli

        def boom(*a, **k):
            raise np.linalg.LinAlgError("synthetic")

        monkeypatch.setattr(cli, "sigma_min", boom)
        support_path = tmp_path / "omega.json"
        support_path.write_text(json.dumps({"points": [0.25]}))
        assert main(["sigma-min", "--support", str(support_path), "--M", "10",
                     "--out", str(tmp_path / "run")]) == 2


class TestMusic:
    def test_synthesized_two_point_recovery(self, tmp_path, two_point_synth, capsys):
        out = tmp_path / "run"
        argv = ["music", "--synthesize", str(two_point_synth), "--sigma", "0",
                "--grid", "1600", "--refine", "--out", str(out)]
        assert main(argv) == 0
        rec = json.loads((out / "recovered.json").read_text())
        assert len(rec["points"]) == 2
        for got, want in zip(sorted(rec["points"]), (0.2, 0.7)):
            assert abs(got - want) <= 1.0 / 1600
        grid_lines = (out / "imaging_grid.csv").read_text().splitlines()
        assert len(grid_lines) == 1601
        assert_manifest_options(out, argv, S=2, L=50)

    def test_measurements_csv_matches_csv_writer(self, tmp_path, two_point_synth):
        # The loop it replaced: csv.writer rows of the index and repr floats.
        out = tmp_path / "run"
        assert main(["music", "--synthesize", str(two_point_synth), "--sigma", "0.3",
                     "--out", str(out)]) == 0
        y = load_measurements(out / "measurements.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, v in enumerate(y):
                writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
        written = (out / "measurements.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b",-") > 50  # negative values on both columns

    def test_from_measurements_file(self, tmp_path):
        support = SupportSet([0.3, 0.8])
        y = vandermonde(support, 60) @ np.array([1.0, 1.0j])
        meas = tmp_path / "y.csv"
        save_measurements(y, meas)
        out = tmp_path / "run"
        argv = ["music", "--input", str(meas), "--S", "2", "--out", str(out)]
        assert main(argv) == 0
        rec = json.loads((out / "recovered.json").read_text())
        assert len(rec["points"]) == 2
        assert_manifest_options(out, argv, L=30, grid=960)

    def test_requires_s_with_input(self, tmp_path):
        meas = tmp_path / "y.csv"
        save_measurements(np.ones(11, dtype=complex), meas)
        assert main(["music", "--input", str(meas), "--out", str(tmp_path / "r")]) == 1

    def test_too_few_peaks_exit_two(self, tmp_path, capsys):
        meas = tmp_path / "y.csv"
        y = np.zeros(101, dtype=complex)
        y[0] = 1.0  # rank one, but R is constant on the torus
        save_measurements(y, meas)
        assert main(["music", "--input", str(meas), "--S", "1",
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: found 0 local maxima of the imaging function, need 1"]

    @pytest.mark.parametrize("y, S", [
        (np.zeros(101, dtype=complex), 1),
        (vandermonde(SupportSet([0.2, 0.7]), 100) @ np.array([1.0, 1.0]), 3),
    ], ids=["zero", "two-sources-S3"])
    def test_s_above_rank_exit_two(self, tmp_path, capsys, y, S):
        meas = tmp_path / "y.csv"
        save_measurements(y, meas)
        out = tmp_path / "r"
        assert main(["music", "--input", str(meas), "--S", str(S), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"numerical failure: S = {S} is above the numerical rank of the 51x51" in err
        assert not out.exists()

    def test_unknown_synthesis_key_exit_one(self, tmp_path, capsys):
        spec = {"support": {"points": [0.2, 0.7]}, "M": 100, "sigam": 0.5}
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        assert main(["music", "--synthesize", str(path), "--out", str(out)]) == 1
        assert "unknown synthesis spec keys: sigam" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"M": "100"}, "synthesis spec key 'M' must be int | None, got '100'"),
        ({"support": {"points": 0.2}},
         "SupportSet key 'points' must be tuple[float, ...], got 0.2"),
        ({"sigma": "0.01"}, "synthesis spec key 'sigma' must be float, got '0.01'"),
        ({"support": "x"}, "SupportSet must be a JSON object, got 'x'"),
        ({"clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "synthesis spec sets both 'clump_spec' and 'support'"),
        ({"clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=100)),
          "support": None},
         "synthesis spec sets both 'clump_spec' and 'M'"),
    ], ids=["M-string", "points-number", "sigma-string", "support-string",
            "clump-spec-and-support", "clump-spec-and-M"])
    def test_wrong_synthesis_type_exit_one(self, tmp_path, capsys, change, message):
        spec = {"support": {"points": [0.2, 0.7]}, "M": 100, "sigma": 0.0, **change}
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        assert main(["music", "--synthesize", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_non_finite_measurement_exit_one(self, tmp_path, capsys):
        y = np.ones(101, dtype=complex)
        y[7] = complex(np.nan, 0.0)
        y[40] = complex(0.0, np.inf)
        meas = tmp_path / "y.csv"
        save_measurements(y, meas)
        assert main(["music", "--input", str(meas), "--S", "1",
                     "--out", str(tmp_path / "r")]) == 1
        assert "measurement 7 is not finite" in capsys.readouterr().err

    def test_negative_sigma_exit_one(self, tmp_path, two_point_synth, capsys):
        out = tmp_path / "run"
        assert main(["music", "--synthesize", str(two_point_synth),
                     "--sigma", "-0.3", "--out", str(out)]) == 1
        assert "sigma must be nonnegative" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_infinite_sigma_exit_one(self, tmp_path, two_point_synth, capsys):
        out = tmp_path / "run"
        assert main(["music", "--synthesize", str(two_point_synth),
                     "--sigma", "inf", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sigma must be nonnegative and finite, got inf\n"
        assert not out.exists()

    def test_manifest_records_blas_threads(self, tmp_path, two_point_synth, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        argv = ["music", "--synthesize", str(two_point_synth), "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
        }
        # S from the synthesized truth, L = M // 2 and grid = 16 * M.
        assert_manifest_options(out, argv, S=2, L=50, grid=1600)

    def test_rejects_both_sources(self, tmp_path, two_point_synth):
        meas = tmp_path / "y.csv"
        save_measurements(np.ones(11, dtype=complex), meas)
        assert main(["music", "--input", str(meas), "--synthesize",
                     str(two_point_synth), "--out", str(tmp_path / "r")]) == 1


class TestCampaigns:
    def test_phase_transition_counts_and_manifest(self, tmp_path, capsys):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50),
            alphas=(0.5, 0.4),
            sigmas=(0.0, 0.1),
            trials_per_cell=2,
            base_seed=5,
        )
        cfg_path = tmp_path / "cfg.json"
        config.save(cfg_path)
        out = tmp_path / "runs"
        argv = ["phase-transition", "--config", str(cfg_path), "--jobs", "1", "--out", str(out)]
        assert main(argv) == 0
        run_dir = out / config.config_hash()
        rows = (run_dir / "phase-transition.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2
        # Without --seed, the manifest records the config's base_seed.
        assert_manifest_options(run_dir, argv, seed=5)
        summary = json.loads((run_dir / "phase-transition_summary.json").read_text())
        assert summary["records"] == 8

    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            kind="concentration", M=30, L=15, sigmas=(1.0,), trials_per_cell=4
        )
        cfg_path = tmp_path / "cfg.json"
        config.save(cfg_path)
        out1 = tmp_path / "r1"
        assert main(["concentration", "--config", str(cfg_path),
                     "--out", str(out1)]) == 0
        run_dir = out1 / config.config_hash()
        manifest = run_dir / "manifest.json"
        out2 = tmp_path / "r2"
        assert main(["concentration", "--config", str(manifest),
                     "--out", str(out2)]) == 0
        a = (run_dir / "concentration.csv").read_bytes()
        b = (out2 / config.config_hash() / "concentration.csv").read_bytes()
        assert a == b

    def test_negative_sigma_config_exit_one(self, tmp_path, capsys):
        config = ExperimentConfig(
            kind="phase-transition",
            clump_spec=ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50),
            alphas=(0.5,),
            sigmas=(0.1,),
        ).to_dict()
        config["sigmas"] = [-0.1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main(["phase-transition", "--config", str(cfg_path), "--jobs", "1",
                     "--out", str(out)]) == 1
        assert "sigmas must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_kind_mismatch_rejected(self, tmp_path):
        config = ExperimentConfig(
            kind="concentration", M=30, L=15, sigmas=(1.0,), trials_per_cell=2
        )
        cfg_path = tmp_path / "cfg.json"
        config.save(cfg_path)
        assert main(["phase-transition", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r")]) == 1

    def test_seed_override_changes_hashless_records(self, tmp_path):
        config = ExperimentConfig(
            kind="concentration", M=30, L=15, sigmas=(1.0,), trials_per_cell=2,
            base_seed=0,
        )
        cfg_path = tmp_path / "cfg.json"
        config.save(cfg_path)
        out = tmp_path / "r"
        argv = ["concentration", "--config", str(cfg_path), "--seed", "9", "--out", str(out)]
        assert main(argv) == 0
        # The overridden seed is part of the effective config and its hash.
        import dataclasses
        effective = dataclasses.replace(config, base_seed=9)
        assert (out / effective.config_hash() / "concentration.csv").exists()
        assert_manifest_options(out / effective.config_hash(), argv, seed=9, jobs=_usable_cpus())

    def test_perturbation_at_zero_sigma(self, tmp_path, capsys):
        config = ExperimentConfig(
            kind="perturbation-check",
            clump_spec=ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50),
            sigmas=(0.0,),
            trials_per_cell=2,
        )
        cfg_path = tmp_path / "cfg.json"
        config.save(cfg_path)
        out = tmp_path / "runs"
        argv = ["perturbation", "--config", str(cfg_path), "--jobs", "1", "--out", str(out)]
        assert main(argv) == 0
        assert_manifest_options(out / config.config_hash(), argv, seed=0)
        summary = json.loads(
            (out / config.config_hash() / "perturbation-check_summary.json").read_text()
        )
        assert summary["precondition_ok"] == 2
        assert summary["violations"] == 0
        assert "max_ratio_sup_to_bound" not in summary

    @pytest.mark.parametrize("subcommand, config, headlines", [
        ("bounds-sweep",
         {"kind": "upper-bound-sweep", "S": 3, "alphas": [0.09, 0.06, 0.04, 0.03],
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.09, beta=1.0, M=100))},
         ["  expected_slope = 1\n", "  fitted_ceiling_constant = "]),
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": [1.0], "trials_per_cell": 20},
         ["  complex-circular sigma 1.0: mean ||H(eta)|| = ", ", Wilson 0."]),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5, 0.4], "sigmas": [0.0, 0.01],
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         ["  SRF 2.00: level90 = 0.01  rates = [1. 1.]\n",
          "  log-log slope of level90 vs SRF: 0.000\n"]),
    ])
    def test_headlines_printed(self, tmp_path, capsys, subcommand, config, headlines):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = [subcommand, "--config", str(cfg_path), "--jobs", "1",
                "--out", str(tmp_path / "runs")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for line in headlines:
            assert line in out
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert_manifest_options(run_dir, argv, seed=0)

    @pytest.mark.parametrize("subcommand, config, message", [
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": [0.0, 1.0]},
         "tail bound is read at t = 1.2*E-bound, which is 0 at sigma 0"),
        ("bounds-sweep",
         {"kind": "upper-bound-sweep", "alphas": [0.04], "S": 3,
          "clump_spec": asdict(ClumpSpec(2, (2, 1), alpha=0.04, beta=10.0, M=100))},
         "upper-bound-sweep uses a single-clump spec"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [0.1], "L": 80,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "L = 80 outside [0, M] = [0, 50]"),
        ("perturbation",
         {"kind": "perturbation-check", "sigmas": [0.1], "L": 1,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "perturbation-check needs S <= L <= M+1-S, got S=2, L=1, M=50"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.4, 0.6], "sigmas": [0.1],
          "clump_spec": asdict(ClumpSpec(1, (3,), alpha=0.4, beta=1.0, M=50))},
         "alphas entry 0.6: clump of 3 points"),
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": [1.0], "trials_per_cel": 5},
         "unknown ExperimentConfig keys: trials_per_cel"),
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": 1.0},
         "error: ExperimentConfig key 'sigmas' must be tuple[float, ...], got 1.0"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [0.1], "amplitude_model": None,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "error: amplitude_model must be a kind or {\"kind\", \"range\"}, got None"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [0.1],
          "clump_spec": dict(asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50)), M=50.5)},
         "error: ClumpSpec key 'M' must be int, got 50.5"),
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": [1.0], "trials_per_cell": True},
         "error: ExperimentConfig key 'trials_per_cell' must be int, got True"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [0.0], "M": 100,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "error: M = 100 disagrees with clump_spec M = 50"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [0.1], "clump_spec": 5},
         "error: ClumpSpec must be a JSON object, got 5"),
        ("concentration", [1, 2], "error: ExperimentConfig must be a JSON object, got [1, 2]"),
        ("concentration", 5, "error: ExperimentConfig must be a JSON object, got 5"),
        ("concentration", {"config": 5}, "error: ExperimentConfig must be a JSON object, got 5"),
        ("bounds-sweep",
         {"kind": "upper-bound-sweep", "alphas": [0.05, 0.04, 0.03, 0.02], "S": 30,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.05, beta=1.0, M=40))},
         "error: placed 12 of 28 fillers in 10000 tries"),
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": [1.0, 1.0], "trials_per_cell": 2},
         "error: sigmas repeats the value 1.0"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5, 0.5], "sigmas": [0.1],
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "error: alphas repeats the value 0.5"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [0.1], "N": 400,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=100))},
         "error: grid resolution 400 below 8*M = 800"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [0.1], "N": 0,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=100))},
         "error: N must be at least 1, got 0"),
        ("perturbation",
         {"kind": "perturbation-check", "sigmas": [0.1], "N": 0,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=100))},
         "error: N must be at least 1, got 0"),
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": [1.0], "N": 7},
         "error: concentration has no imaging grid, so N must be null, got 7"),
        ("bounds-sweep",
         {"kind": "sigma-min-sweep", "alphas": [0.5, 0.4], "L": 7,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=60))},
         "error: sigma-min-sweep has no Hankel matrix, so L must be null, got 7"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [float("inf")],
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "error: sigmas must be nonnegative and finite, got [inf]"),
        ("perturbation",
         {"kind": "perturbation-check", "sigmas": [0.1, float("inf")],
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "error: sigmas must be nonnegative and finite, got [0.1, inf]"),
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": [float("inf")]},
         "error: sigmas must be nonnegative and finite, got [inf]"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [float("nan")], "sigmas": [0.1],
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "error: alphas entry nan: alpha and beta must be positive and finite"),
        ("bounds-sweep",
         {"kind": "sigma-min-sweep", "alphas": [0.5, 0.4, 0.3, 0.2],
          "clump_spec": dict(asdict(ClumpSpec(2, (2, 2), alpha=0.5, beta=1.0, M=60)),
                             beta=float("inf"))},
         "error: alpha and beta must be positive and finite"),
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5], "sigmas": [0.1],
          "amplitude_model": {"kind": "random-modulus", "range": [0.5, float("inf")]},
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=50))},
         "error: bad modulus range (0.5, inf)"),
    ])
    def test_bad_campaign_config_exit_one(self, tmp_path, capsys, subcommand, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main([subcommand, "--config", str(cfg_path), "--jobs", "1",
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["-3", "0", "two"])
    def test_bad_jobs_exit_one(self, tmp_path, capsys, jobs):
        cfg_path = tmp_path / "cfg.json"
        ExperimentConfig(kind="concentration", M=30, L=15, sigmas=(1.0,)).save(cfg_path)
        out = tmp_path / "runs"
        assert main(["concentration", "--config", str(cfg_path), "--jobs", jobs,
                     "--out", str(out)]) == 1
        assert (f"error: argument --jobs: must be an integer of at least 1, got {jobs!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_jobs_default_is_usable_cpus(self, tmp_path, monkeypatch):
        # Two CPUs in the affinity mask of a machine with 64.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        config = ExperimentConfig(kind="concentration", M=30, L=15, sigmas=(1.0,))
        cfg_path = tmp_path / "cfg.json"
        config.save(cfg_path)
        assert main(["concentration", "--config", str(cfg_path),
                     "--out", str(tmp_path / "runs")]) == 0
        manifest = json.loads(
            (tmp_path / "runs" / config.config_hash() / "manifest.json").read_text())
        assert manifest["options"]["jobs"] == 2

    @pytest.mark.parametrize("subcommand, config", [
        ("phase-transition",
         {"kind": "phase-transition", "alphas": [0.5, 0.4], "sigmas": [0.0, 0.01, 0.1],
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=40))}),
        ("perturbation",
         {"kind": "perturbation-check", "sigmas": [0.0, 0.01, 0.1], "epsilon": 0.1,
          "clump_spec": asdict(ClumpSpec(1, (2,), alpha=0.5, beta=1.0, M=40))}),
        ("concentration",
         {"kind": "concentration", "M": 30, "L": 15, "sigmas": [0.5, 1.0],
          "trials_per_cell": 3, "noise_kind": "real"}),
    ])
    def test_summary_keys_read_downstream(self, tmp_path, subcommand, config):
        """The keys that the benchmark's checks and the printed headlines read."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main([subcommand, "--config", str(cfg_path), "--jobs", "1",
                     "--out", str(out)]) == 0
        (path,) = out.glob("*/*_summary.json")
        summary = json.loads(path.read_text())
        sigmas = config["sigmas"]
        if subcommand == "concentration":
            assert [rep["sigma"] for rep in summary["reports"]] == sigmas
            for rep in summary["reports"]:
                assert rep["kind"] == "real"
                assert rep["empirical_mean_norm"] < rep["expectation_bound"]
                for key in ("tail_t", "empirical_tail_prob", "tail_bound"):
                    assert isinstance(rep[key], float)
                assert len(rep["tail_wilson"]) == 2
        else:
            table = summary["table"]
            rows = len(config.get("alphas", [None]))
            assert len(table["srf"]) == len(table["level90"]) == rows
            assert [len(row) for row in table["success_rate"]] == [len(sigmas)] * rows
            assert all(0.0 <= rate <= 1.0 for row in table["success_rate"] for rate in row)
            assert all(level in sigmas for level in table["level90"])


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_committed_configs_present():
    assert len(CONFIGS) >= 7


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_config_is_canonical(path, tmp_path):
    """Each file is what ExperimentConfig.save writes for it (so its hash cannot
    drift), and exactly one campaign subcommand runs its kind."""
    config = ExperimentConfig.load(path)
    config.save(tmp_path / "saved.json")
    assert (tmp_path / "saved.json").read_bytes() == path.read_bytes()
    assert sum(config.kind in kinds for _, kinds, _ in CAMPAIGN_COMMANDS) == 1
