import numpy as np
import pytest

from srmusic.csvtext import _csv_rows, _shortest_mantissa, write_csv


def _boundary_values():
    """1e-4, 1e15 and 1e16 with 20 neighbours each way, specials, negatives."""
    near = []
    for edge in (1e-4, 1e15, 1e16):
        below = above = edge
        for _ in range(20):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            near += [below, above]
        near.append(edge)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                np.finfo(float).max, 1e-5, 123456789012345678.0]
    values = np.array(near + specials)
    return np.concatenate([values, -values])


def _scaled_decimals(rng, n):
    scale = 10.0 ** rng.integers(0, 8, n)
    return np.round(rng.uniform(-1e6, 1e6, n) * scale) / scale


def _significant_digits(v: float) -> int:
    mantissa = repr(v).lstrip("-").split("e")[0]
    return len(mantissa.replace(".", "").strip("0"))


def _round_numbers(rng):
    """k * 10^j for j = 0..15, and values whose digits end at each 4-digit seam; negatives too.

    repr keeps the zeros through the point of k * 10^j (100.0, 1200.0), and
    digits that end at 1, 5, 9, 13 or 17 significant digits leave only
    whole zero quads after them.
    """
    powers = [float(k * 10**j) for k in range(1, 100) for j in range(16) if k * 10**j < 10**16]
    seams = []
    for s in (1, 5, 9, 13):
        digits = rng.integers(10 ** (s - 1), 10**s, 2000)
        digits += digits % 10 == 0  # the last digit is significant
        seams += [float(f"{m}e{e - s + 1}") for m, e in zip(digits, rng.integers(-4, 16, 2000))]
    wide = rng.uniform(1, 10, 4000) * 10.0 ** rng.integers(-4, 16, 4000)
    seams += [v for v in wide.tolist() if _significant_digits(v) == 17]
    values = np.array(powers + seams)
    return np.concatenate([values, -values])


# Value classes of the differential test, about 1.2e6 values in all.
REPR_CLASSES = {
    "random-bits": lambda rng: rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(float),
    "uniform": lambda rng: rng.uniform(size=200_000),
    "R-like": lambda rng: 1.0 - rng.uniform(size=150_000) * 1e-4,
    "J-like": lambda rng: 1.0 / (1.0 - rng.uniform(size=150_000) * 1e-4),
    "grid-nodes": lambda rng: np.concatenate(
        [np.arange(N) / N for N in (1600, 1608, 2000, 8000, 16000, 32000)]
    ),
    "short-decimals": lambda rng: _scaled_decimals(rng, 200_000),
    # Exact binary fractions: 16- and 17-digit ties, which repr breaks to even.
    "dyadic": lambda rng: rng.integers(1, 10, 100_000) + rng.integers(1, 2**20, 100_000) / 2**20,
    "wide-signed": lambda rng: rng.uniform(-1, 1, 100_000) * 10.0 ** rng.integers(-6, 18, 100_000),
    "powers-of-two": lambda rng: np.ldexp(1.0, np.arange(-1074, 1024)),
    "edges": lambda rng: _boundary_values(),
    "round-numbers": _round_numbers,
}


class TestReprWriter:
    """The vectorized CSV writer against repr, the format it replaced."""

    def test_covers_a_million_values(self):
        rng = np.random.default_rng(0)
        assert sum(len(make(rng)) for make in REPR_CLASSES.values()) >= 1_000_000

    @pytest.mark.parametrize("name", list(REPR_CLASSES))
    def test_matches_repr(self, name):
        x = REPR_CLASSES[name](np.random.default_rng(2024))
        got = _csv_rows([x]).split(b"\r\n")
        want = [repr(v).encode() for v in x.tolist()] + [b""]
        bad = [(w, g) for w, g in zip(want, got) if w != g]
        assert len(got) == len(want) and bad == []
        exact = _shortest_mantissa(np.abs(x))[2]
        if name in ("R-like", "J-like"):
            assert exact.mean() > 0.99  # the vectorized path, not repr, wrote them
        if name == "edges":
            assert 0 < exact.sum() < len(x)  # both paths ran


class TestWriteCsv:
    @pytest.mark.parametrize("header, columns", [
        ("i,x", [np.arange(2), np.ones(3)]),
        ("i,x", [np.arange(3), np.ones(2)]),
        ("i,x,y", [np.arange(3), np.ones(3)]),
        ("i", [np.arange(3), np.ones(3)]),
    ], ids=["later-column-longer", "later-column-shorter", "header-longer", "header-shorter"])
    def test_rejects_mismatched_columns(self, tmp_path, header, columns):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", header, columns)
        assert not (tmp_path / "t.csv").exists()
