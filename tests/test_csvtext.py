import numpy as np
import pytest

from srmusic.csvtext import _csv_rows, _shortest_mantissa


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
