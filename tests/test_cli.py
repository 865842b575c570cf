import json

import numpy as np
import pytest

from srmusic.cli import main
from srmusic.harness import ExperimentConfig
from srmusic.music import save_measurements
from srmusic.torus import ClumpSpec, SupportSet
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
        spec_path.write_text(spec.to_json())
        out = tmp_path / "run"
        code = main(["gen-support", "--spec", str(spec_path), "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        support = SupportSet.from_dict(json.loads((out / "support.json").read_text()))
        assert support.size == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "gen-support"
        assert manifest["seed"] == 3
        assert "support.json" in manifest["outputs"]

    def test_infeasible_spec_exit_one(self, tmp_path, capsys):
        spec = ClumpSpec(2, (2, 2), alpha=0.5, beta=60.0, M=100)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        assert main(["gen-support", "--spec", str(spec_path),
                     "--out", str(tmp_path / "run")]) == 1


class TestSigmaMin:
    def test_value_written(self, tmp_path, capsys):
        support_path = tmp_path / "omega.json"
        support_path.write_text(json.dumps({"points": [0.25]}))
        out = tmp_path / "run"
        code = main(["sigma-min", "--support", str(support_path), "--M", "100",
                     "--out", str(out)])
        assert code == 0
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
        code = main(["music", "--synthesize", str(two_point_synth),
                     "--sigma", "0", "--grid", "1600", "--refine",
                     "--out", str(out)])
        assert code == 0
        rec = json.loads((out / "recovered.json").read_text())
        assert len(rec["points"]) == 2
        for got, want in zip(sorted(rec["points"]), (0.2, 0.7)):
            assert abs(got - want) <= 1.0 / 1600
        grid_lines = (out / "imaging_grid.csv").read_text().splitlines()
        assert len(grid_lines) == 1601
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["grid"] == 1600

    def test_from_measurements_file(self, tmp_path):
        support = SupportSet([0.3, 0.8])
        y = vandermonde(support, 60).entries @ np.array([1.0, 1.0j])
        meas = tmp_path / "y.csv"
        save_measurements(y, meas)
        out = tmp_path / "run"
        code = main(["music", "--input", str(meas), "--S", "2", "--out", str(out)])
        assert code == 0
        rec = json.loads((out / "recovered.json").read_text())
        assert len(rec["points"]) == 2

    def test_requires_s_with_input(self, tmp_path):
        meas = tmp_path / "y.csv"
        save_measurements(np.ones(11, dtype=complex), meas)
        assert main(["music", "--input", str(meas), "--out", str(tmp_path / "r")]) == 1

    def test_too_few_peaks_exit_two(self, tmp_path, capsys):
        meas = tmp_path / "y.csv"
        save_measurements(np.zeros(101, dtype=complex), meas)
        assert main(["music", "--input", str(meas), "--S", "1",
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: found 0 local maxima of the imaging function, need 1"]

    def test_non_finite_measurement_exit_one(self, tmp_path, capsys):
        y = np.ones(101, dtype=complex)
        y[7] = complex(np.nan, 0.0)
        y[40] = complex(0.0, np.inf)
        meas = tmp_path / "y.csv"
        save_measurements(y, meas)
        assert main(["music", "--input", str(meas), "--S", "1",
                     "--out", str(tmp_path / "r")]) == 1
        assert "measurement 7 is not finite" in capsys.readouterr().err

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
        )
        cfg_path = tmp_path / "cfg.json"
        config.save(cfg_path)
        out = tmp_path / "runs"
        code = main(["phase-transition", "--config", str(cfg_path), "--jobs", "1",
                     "--out", str(out)])
        assert code == 0
        run_dir = out / config.config_hash()
        rows = (run_dir / "phase-transition.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2
        assert (run_dir / "manifest.json").exists()
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
        assert main(["concentration", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(out)]) == 0
        # The overridden seed is part of the effective config and its hash.
        import dataclasses
        effective = dataclasses.replace(config, base_seed=9)
        assert (out / effective.config_hash() / "concentration.csv").exists()
