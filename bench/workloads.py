"""The benchmark's workloads: their inputs, one timed CLI call, and output checks.

Each workload drives srmusic the way a user does, through ``srmusic.cli.main``.
A round is one CLI call. Its inputs derive from the benchmark seed, the
worker process number and the round index alone. The checks compare the
call's outputs with computations the benchmark makes itself (its own Hankel
matrices, SVDs, eigenvalues and matchings) or with properties the method must
have; none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from srmusic import cli
from srmusic.noise import NoiseSpec, sample_noise


def call_cli(argv) -> int:
    """srmusic.cli.main with its human-readable stdout kept off the benchmark's."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def round_seed(seed: int, process: int, index: int) -> int:
    """Campaign base seed of one round; distinct for every (seed, process, index)."""
    return (seed * 8 + process) * 100_000 + index


WARM_UP = 99_999  # round index of the warm-up call, never reached by the timed loop


class Checked:
    """Outcome of one round's checks."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.problems = []
        self.output_bytes = 0

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _campaign_files(out: Path, kind: str) -> tuple[list[dict], dict]:
    (csv_path,) = out.glob(f"*/{kind}.csv")
    summary = json.loads(csv_path.with_name(f"{kind}_summary.json").read_text())
    return _read_csv(csv_path), summary


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps({"schema": 1, "base_seed": 0, **config}, indent=2) + "\n")
    return path


class PhaseTransition:
    """`srmusic phase-transition` on the layout of acceptance criterion 9.

    One clump of 2 at M = 200 on an N = 8M grid, SRF 1.5, 2, 2.5 and 3, the
    16 sigma of geomspace(0.007, 0.9, 16), refinement on; one trial per cell,
    so a round (one CLI call) is 64 trials.
    """

    name = "phase-transition"
    M = 200
    SRF = (1.5, 2.0, 2.5, 3.0)
    SIGMAS = tuple(float(s) for s in np.geomspace(0.007, 0.9, 16))
    TRIALS_PER_CELL = 1

    def __init__(self, seed: int, process: int, out: Path, jobs: int):
        self.seed, self.process, self.out, self.jobs = seed, process, out, jobs
        self.config = self._config(out / "phase-transition.json",
                                   [1.0 / s for s in self.SRF], self.SIGMAS)
        # Trials and successes at the largest SRF and sigma, over the whole run.
        self.hardest = [0, 0]

    def _config(self, path, alphas, sigmas) -> Path:
        return _write_config(path, {
            "kind": "phase-transition",
            "clump_spec": {"num_clumps": 1, "clump_sizes": [2], "alpha": 0.5,
                           "beta": 1.0, "M": self.M, "anchors": None, "jitter": 0.0},
            "alphas": list(alphas),
            "sigmas": list(sigmas),
            "trials_per_cell": self.TRIALS_PER_CELL,
            "N": 8 * self.M,
            "amplitude_model": "random-phase-unit",
            "noise_kind": "complex-circular",
        })

    def warm_up(self) -> None:
        config = self._config(self.out / "warm-up.json", [1.0 / self.SRF[0]],
                              [self.SIGMAS[0], self.SIGMAS[-1]])
        call_cli(["phase-transition", "--config", config,
                  "--seed", round_seed(self.seed, self.process, WARM_UP),
                  "--jobs", self.jobs, "--out", self.out / "warm-up"])

    def prepare(self, index: int, out: Path) -> list:
        return ["phase-transition", "--config", self.config,
                "--seed", round_seed(self.seed, self.process, index),
                "--jobs", self.jobs, "--out", out]

    def check(self, index: int, code: int, out: Path) -> Checked:
        ops = len(self.SRF) * len(self.SIGMAS) * self.TRIALS_PER_CELL
        result = Checked(ops)
        if code != 0:
            result.fail(ops, f"round {index}: exit code {code}")
            return result
        rows, summary = _campaign_files(out, self.name)
        if len(rows) != ops:
            result.fail(ops, f"round {index}: {len(rows)} records, expected {ops}")
            return result
        alphas = sorted({float(r["alpha"]) for r in rows}, reverse=True)  # SRF ascending
        sigmas = sorted({float(r["sigma"]) for r in rows})
        good = {(a, s): 0 for a in alphas for s in sigmas}
        total = dict.fromkeys(good, 0)
        for r in rows:
            alpha, sigma = float(r["alpha"]), float(r["sigma"])
            success = r["success"] == "true"
            total[alpha, sigma] += 1
            good[alpha, sigma] += success
            if r["error"]:
                result.fail(1, f"trial {r['seed']}: {r['error']}")
            elif success != (float(r["matched_error"]) < alpha / (2.0 * self.M)):
                result.fail(1, f"trial {r['seed']}: success flag disagrees with "
                               f"matched_error {r['matched_error']}")
            elif sigma == sigmas[0] and not success:
                result.fail(1, f"trial {r['seed']}: failed at the smallest sigma {sigma}")
            if alpha == alphas[-1] and sigma == sigmas[-1]:
                self.hardest[0] += 1
                self.hardest[1] += success
        rates = [[good[a, s] / total[a, s] for s in sigmas] for a in alphas]
        level90 = []
        for row in rates:
            ok = [s for s, rate in zip(sigmas, row) if rate >= 0.9]
            level90.append(max(ok) if ok else None)
        table = summary["table"]
        if table["success_rate"] != rates or table["level90"] != level90:
            result.fail(ops, f"round {index}: summary table differs from the CSV records")
        return result

    def finish(self) -> list[str]:
        trials, successes = self.hardest
        if trials and successes / trials >= 0.9:
            return [f"success rate {successes}/{trials} at SRF {self.SRF[-1]}, "
                    f"sigma {self.SIGMAS[-1]} is not below 0.9"]
        return []


class MusicLargeM:
    """Serial `srmusic music --input <file> --S 8 --refine` calls at M = 1000.

    Each call reads its own measurement file: 4 clumps of 2 sources with
    unit moduli and random phases. A clump's anchors are spread around the
    torus, and its two sources lie alpha/M apart with SRF = 1/alpha drawn
    from [1.25, 1.75]. Complex noise has sigma = 0.01. The default grid
    N = 16M and split L = M/2 are used.
    """

    name = "music-large-m"
    M = 1000
    CLUMPS = 4
    S = 2 * CLUMPS
    SRF_RANGE = (1.25, 1.75)
    SIGMA = 0.01
    R_TOL = 1e-8  # agreement of the program's grid R with the benchmark's own
    WARM_UP_M = 250  # the warm-up call runs every code path at a quarter of M

    def __init__(self, seed: int, process: int, out: Path, jobs: int):
        self.seed, self.process, self.out = seed, process, out
        self.truth = {}

    def _measurements(self, index: int, path: Path, M: int = M) -> Path:
        rng = np.random.default_rng([self.seed, self.process, index])
        alpha = 1.0 / rng.uniform(*self.SRF_RANGE, self.CLUMPS)
        anchors = (rng.uniform() + np.arange(self.CLUMPS)
                   + rng.uniform(-0.2, 0.2, self.CLUMPS)) / self.CLUMPS
        points = np.concatenate([anchors, anchors + alpha / M]) % 1.0
        spacing = np.concatenate([alpha, alpha]) / M
        x = np.exp(2j * np.pi * rng.uniform(size=self.S))
        y = np.exp(-2j * np.pi * np.outer(np.arange(M + 1), points)) @ x
        y += self.SIGMA / math.sqrt(2.0) * (rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, v in enumerate(y):
                writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
        self.truth[index] = (points, spacing, y)
        return path

    def warm_up(self) -> None:
        path = self._measurements(WARM_UP, self.out / "warm-up.csv", self.WARM_UP_M)
        call_cli(["music", "--input", path, "--S", self.S, "--refine",
                  "--out", self.out / "warm-up"])
        del self.truth[WARM_UP]

    def prepare(self, index: int, out: Path) -> list:
        out.mkdir(parents=True)
        path = self._measurements(index, out / "measurements.csv")
        return ["music", "--input", path, "--S", self.S, "--refine", "--out", out / "music"]

    def check(self, index: int, code: int, out: Path) -> Checked:
        result = Checked(1)
        points, spacing, y = self.truth.pop(index)
        if code != 0:
            result.fail(1, f"call {index}: exit code {code}")
            return result
        music_dir = out / "music"
        result.output_bytes = sum(p.stat().st_size for p in music_dir.iterdir())
        recovered = np.array(json.loads((music_dir / "recovered.json").read_text())["points"])
        grid = _read_csv(music_dir / "imaging_grid.csv")
        problems = []
        N = 16 * self.M
        if len(grid) != N:
            problems.append(f"grid has {len(grid)} rows, expected {N}")
        grid_r = np.array([float(r["R"]) for r in grid])
        if not np.all((grid_r >= 0.0) & (grid_r <= 1.0)):
            problems.append("grid R outside [0, 1]")
        if len(recovered) != self.S:
            problems.append(f"{len(recovered)} points recovered, expected {self.S}")
        else:
            problems += self._check_points(recovered, points, spacing)
            if len(grid) == N:
                problems += self._check_peaks(recovered, y, grid_r, N)
        for p in problems:
            result.fail(1, f"call {index}: {p}")
        return result

    def _check_points(self, recovered, points, spacing) -> list[str]:
        """Each recovered point within alpha/(2M) of its own nearest true source."""
        d = np.abs(recovered[:, None] - points[None, :])
        d = np.minimum(d, 1.0 - d)
        nearest = d.argmin(axis=1)
        if len(set(nearest.tolist())) != self.S:
            return ["two recovered points share one true source"]
        far = d[np.arange(self.S), nearest] >= spacing[nearest] / 2.0
        return [f"recovered point {recovered[k]!r} is not within alpha/(2M) of a source"
                for k in np.nonzero(far)[0]]

    def _check_peaks(self, recovered, y, grid_r, N) -> list[str]:
        """R from the benchmark's own SVD: each peak no higher than its grid neighbours."""
        L = self.M // 2
        H = y[np.arange(L + 1)[:, None] + np.arange(self.M - L + 1)[None, :]]
        signal = np.linalg.svd(H)[0][:, : self.S]

        def own_r(omega):
            phi = np.exp(-2j * np.pi * np.outer(np.arange(L + 1), omega))
            captured = np.sum(np.abs(signal.conj().T @ phi) ** 2, axis=0) / (L + 1)
            return np.sqrt(np.clip(1.0 - captured, 0.0, 1.0))

        left = np.floor(recovered * N).astype(int) % N
        right = (left + 1) % N
        r_peak, r_left, r_right = own_r(recovered), own_r(left / N), own_r(right / N)
        problems = []
        if np.any(r_peak > np.minimum(r_left, r_right) + self.R_TOL):
            problems.append("a recovered point has larger R than a neighbouring grid node")
        nodes = np.concatenate([left, right])
        if np.max(np.abs(grid_r[nodes] - np.concatenate([r_left, r_right]))) > self.R_TOL:
            problems.append("grid R differs from the benchmark's own R")
        return problems

    def finish(self) -> list[str]:
        return []


class Concentration:
    """`srmusic concentration` at M = 2000, L = M/2 with real Gaussian noise.

    Two noise levels, two trials each, so a round (one CLI call) is four
    dense spectral norms of 1001 x 1001 Hankel matrices.
    """

    name = "concentration"
    M = 2000
    L = 1000
    SIGMAS = (0.5, 1.0)
    TRIALS_PER_CELL = 2
    NORM_RTOL = 1e-9
    TAIL_FACTOR = 1.2  # the tail is read at 1.2 times the expectation bound

    def __init__(self, seed: int, process: int, out: Path, jobs: int):
        self.seed, self.process, self.out, self.jobs = seed, process, out, jobs
        self.config = self._config(out / "concentration.json", self.SIGMAS,
                                   self.TRIALS_PER_CELL)

    def _config(self, path, sigmas, trials, M=M) -> Path:
        return _write_config(path, {
            "kind": "concentration", "M": M, "L": M // 2,
            "sigmas": list(sigmas), "trials_per_cell": trials, "noise_kind": "real",
        })

    def warm_up(self) -> None:
        config = self._config(self.out / "warm-up.json", self.SIGMAS[:1], 1, self.M // 5)
        call_cli(["concentration", "--config", config,
                  "--seed", round_seed(self.seed, self.process, WARM_UP),
                  "--jobs", self.jobs, "--out", self.out / "warm-up"])

    def prepare(self, index: int, out: Path) -> list:
        return ["concentration", "--config", self.config,
                "--seed", round_seed(self.seed, self.process, index),
                "--jobs", self.jobs, "--out", out]

    def expectation_bound(self, sigma: float) -> float:
        c = max(self.L + 1, self.M - self.L + 1)
        return sigma * math.sqrt(2.0 * c * math.log(self.M + 2))

    def tail_bound(self, t: float, sigma: float) -> float:
        c = max(self.L + 1, self.M - self.L + 1)
        return min(1.0, (self.M + 2) * math.exp(-t * t / (2.0 * sigma * sigma * c)))

    def own_norm(self, sigma: float, seed: str) -> float:
        """||H(eta)||_2 by a symmetric eigensolver; H is real and square at L = M/2."""
        spec = NoiseSpec(sigma=sigma, kind="real", seed=tuple(int(v) for v in seed.split("-")))
        eta = sample_noise(spec, self.M).real
        H = eta[np.arange(self.L + 1)[:, None] + np.arange(self.M - self.L + 1)[None, :]]
        return float(np.max(np.abs(np.linalg.eigvalsh(H))))

    def check(self, index: int, code: int, out: Path) -> Checked:
        ops = len(self.SIGMAS) * self.TRIALS_PER_CELL
        result = Checked(ops)
        if code != 0:
            result.fail(ops, f"round {index}: exit code {code}")
            return result
        rows, summary = _campaign_files(out, self.name)
        if len(rows) != ops:
            result.fail(ops, f"round {index}: {len(rows)} records, expected {ops}")
            return result
        reports = {rep["sigma"]: rep for rep in summary["reports"]}
        for sigma in self.SIGMAS:
            cell = [r for r in rows if float(r["sigma"]) == sigma]
            norms = np.array([float(r["hankel_norm"]) for r in cell])
            # The first trial of each sigma is recomputed from its seed.
            own = self.own_norm(sigma, cell[0]["seed"])
            if abs(own - norms[0]) > self.NORM_RTOL * own:
                result.fail(1, f"trial {cell[0]['seed']}: norm {norms[0]!r}, "
                               f"recomputed {own!r}")
            bound = self.expectation_bound(sigma)
            t = self.TAIL_FACTOR * bound
            tail = float(np.mean(norms >= t))
            if norms.mean() >= bound or tail >= self.tail_bound(t, sigma):
                result.fail(len(cell), f"round {index}, sigma {sigma}: mean norm "
                                       f"{norms.mean():.4g} (bound {bound:.4g}), tail {tail}")
            rep = reports.get(sigma)
            if rep is None or not math.isclose(rep["empirical_mean_norm"], norms.mean(),
                                               rel_tol=1e-12):
                result.fail(len(cell), f"round {index}, sigma {sigma}: summary mean "
                                       f"differs from the CSV records")
        return result

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (PhaseTransition, MusicLargeM, Concentration)}
