"""Torus geometry and the separated-clumps support model.

Point sources live on the unit torus [0, 1). A support set is "clumped" when
it splits into groups of diameter at most 1/M (M+1 = number of Fourier
samples), with intra-clump spacing at least alpha/M and inter-clump gaps of
at least beta/M.
"""

from __future__ import annotations

import math
import numbers
import types
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import NamedTuple, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

# Relative slack for certifying geometric inequalities on floats. Generated
# configurations sit exactly on the alpha/M and beta/M boundaries, so strict
# comparisons would fail by one ulp.
GEOM_RTOL = 1e-9


class ClumpValidationError(ValueError):
    """A support set does not satisfy the clumps model being certified."""


class SeparationViolation(ClumpValidationError):
    """Minimum separation fell below alpha/M."""


class ClumpDiameterViolation(ClumpValidationError):
    """A clump of size lam needs alpha*(lam-1) < 1 to fit in a 1/M window."""


class InterClumpGapViolation(ClumpValidationError):
    """Two clumps are closer than beta/M."""


class InfeasibleSpecError(ValueError):
    """A clump specification cannot be placed on the unit circumference."""


def _fits(value, hint) -> bool:
    """Whether a JSON-loaded value has the type a dataclass field declares.

    A tuple field takes a JSON list; an int is a number for a float field,
    and a bool is neither.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        return any(_fits(value, h) for h in args)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(items) == len(value) and all(map(_fits, value, items))
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    return isinstance(value, hint)


def from_fields(cls, d: dict, name: str | None = None):
    """The one JSON decoder: cls(**d) for a dataclass, where a field typed as
    a dataclass, or as that class | None, is decoded by a nested call (a None
    or an instance passes as it is). An unknown or missing key, or a value of
    the wrong type, is a ValueError; messages call d name, or the class name,
    and a nested message names the inner class."""
    name = name or cls.__name__
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object, got {d!r}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in d if key not in names]
    if unknown:
        raise ValueError(f"unknown {name} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{name} is missing: {', '.join(missing)}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name not in d:
            continue
        value, hint = d[f.name], hints[f.name]
        nested = [h for h in (hint, *get_args(hint)) if is_dataclass(h)]
        if nested and not isinstance(value, (nested[0], type(None))):
            value = from_fields(nested[0], value)
        if not _fits(value, hint):
            raise ValueError(f"{name} key {f.name!r} must be {f.type}, got {value!r}")
        values[f.name] = value
    return cls(**values)


def torus_distance(a: float, b: float) -> float:
    """Wrap-around distance between two positions in [0, 1)."""
    if not (0.0 <= a < 1.0 and 0.0 <= b < 1.0):
        raise ValueError(f"positions must lie in [0, 1), got {a} and {b}")
    d = abs(a - b)
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class SupportSet:
    """Sorted point set on the torus; the unknown source locations.

    Input points may be given in any order; they are sorted on construction.
    Duplicates and out-of-range values are rejected.
    """

    points: tuple[float, ...]

    def __init__(self, points: Sequence[float]):
        pts = tuple(sorted(float(p) for p in points))
        if len(pts) == 0:
            raise ValueError("a support set needs at least one point")
        for p in pts:
            if not (0.0 <= p < 1.0):
                raise ValueError(f"support point {p} outside [0, 1)")
        for p, q in zip(pts, pts[1:]):
            if p == q:
                raise ValueError(f"duplicate support point {p}")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


def min_separation(omega: SupportSet) -> float:
    """Smallest pairwise wrap-around distance; needs at least two points."""
    if omega.size < 2:
        raise ValueError("minimum separation is undefined for a single point")
    return min(_circular_gaps(omega.points))


def super_resolution_factor(M: int, delta: float) -> float:
    """SRF = 1/(M*delta); values above 1 mean sources closer than 1/M.

    With delta = alpha/M this is 1/alpha, the quantity the scaling laws are
    expressed in.
    """
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    return 1.0 / (M * delta)


@dataclass(frozen=True)
class ClumpSpec:
    """Generative description of a separated-clumps configuration.

    clump_sizes lists the number of points per clump, in circular order.
    anchors, when given, are the left endpoints of the clumps; otherwise the
    generator places clumps at random with gaps of at least beta/M. jitter
    (0..1) perturbs each point by an independent uniform shift in
    [0, jitter*alpha/(4M)]; 0 means exact arithmetic progressions.
    """

    num_clumps: int
    clump_sizes: tuple[int, ...]
    alpha: float
    beta: float
    M: int
    anchors: tuple[float, ...] | None = None
    jitter: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "clump_sizes", tuple(int(v) for v in self.clump_sizes))
        if self.anchors is not None:
            object.__setattr__(self, "anchors", tuple(float(a) for a in self.anchors))
        if self.num_clumps < 1:
            raise ValueError("num_clumps must be positive")
        if len(self.clump_sizes) != self.num_clumps:
            raise ValueError(
                f"expected {self.num_clumps} clump sizes, got {len(self.clump_sizes)}"
            )
        if any(lam < 1 for lam in self.clump_sizes):
            raise ValueError("every clump needs at least one point")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must lie in [0, 1]")
        for lam in self.clump_sizes:
            if self.alpha * (lam - 1) >= 1.0:
                raise ValueError(
                    f"clump of {lam} points at spacing alpha/M={self.alpha}/{self.M} "
                    f"does not fit in a 1/M window (alpha*(lam-1) must be < 1)"
                )
        if self.anchors is not None:
            if len(self.anchors) != self.num_clumps:
                raise ValueError("one anchor per clump required")
            for a in self.anchors:
                if not (0.0 <= a < 1.0):
                    raise ValueError(f"anchor {a} outside [0, 1)")

    @property
    def total_points(self) -> int:
        return sum(self.clump_sizes)


@dataclass(frozen=True)
class ClumpPartition:
    """Partition of a support set into clumps, with the certified parameters.

    clumps holds tuples of indices into the sorted point list; a clump that
    straddles the 0/1 cut is still one tuple (its indices wrap modulo S).
    """

    clumps: tuple[tuple[int, ...], ...]
    M: int
    S: int
    alpha: float
    beta: float

    @property
    def num_clumps(self) -> int:
        return len(self.clumps)

    @property
    def clump_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clumps)

    @property
    def lambda_max(self) -> int:
        return max(self.clump_sizes)


def _circular_gaps(pts: tuple[float, ...]) -> list[float]:
    """gaps[i] = arc from pts[i] up to the next point (the last wraps)."""
    return [b - a for a, b in zip(pts, (*pts[1:], pts[0] + 1.0))]


def validate_clumps(
    omega: SupportSet, M: int, alpha: float, beta: float
) -> ClumpPartition:
    """Partition a support set into clumps and certify the model parameters.

    The partition is greedy on the circularly sorted points: the cut is
    placed in the largest gap, then maximal runs of diameter <= 1/M are
    grouped. Certification checks minimum separation >= alpha/M, that
    alpha*(lam-1) < 1 for every clump, and (for more than one clump) that
    all pairwise clump distances are >= beta/M. Each violation raises its
    own exception type.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    pts = omega.points
    S = omega.size
    gaps = _circular_gaps(pts)

    if S == 1:
        clumps = ((0,),)
    else:
        start = (gaps.index(max(gaps)) + 1) % S
        order = [(start + k) % S for k in range(S)]
        # Unrolled coordinates from the cut point are nondecreasing.
        u = [(pts[i] - pts[start]) % 1.0 for i in order]
        clump_lists: list[list[int]] = [[order[0]]]
        run_start = u[0]
        for k in range(1, S):
            if u[k] - run_start <= (1.0 / M) * (1.0 + GEOM_RTOL):
                clump_lists[-1].append(order[k])
            else:
                clump_lists.append([order[k]])
                run_start = u[k]
        clumps = tuple(tuple(c) for c in clump_lists)

    if S >= 2:
        delta = min(gaps)
        if delta < (alpha / M) * (1.0 - GEOM_RTOL):
            raise SeparationViolation(
                f"minimum separation {delta:.6g} below alpha/M = {alpha / M:.6g}"
            )

    for idx, clump in enumerate(clumps):
        lam = len(clump)
        if alpha * (lam - 1) >= 1.0:
            raise ClumpDiameterViolation(
                f"clump {idx} has {lam} points; alpha*(lam-1) = "
                f"{alpha * (lam - 1):.6g} must be < 1"
            )

    if len(clumps) > 1:
        # Clumps are contiguous arcs, so the closest pair of clumps is the
        # smallest gap after a clump's last point.
        gaps = [gaps[c[-1]] for c in clumps]
        i = gaps.index(min(gaps))
        if gaps[i] < (beta / M) * (1.0 - GEOM_RTOL):
            raise InterClumpGapViolation(
                f"clumps {i} and {(i + 1) % len(clumps)} are {gaps[i]:.6g} apart, "
                f"below beta/M = {beta / M:.6g}"
            )

    return ClumpPartition(clumps=clumps, M=M, S=S, alpha=alpha, beta=beta)


def generate_clumps(spec: ClumpSpec, seed) -> tuple[SupportSet, ClumpPartition]:
    """Draw a support set realizing a clump spec, plus its certified partition.

    Within each clump the points form an arithmetic progression of step
    alpha/M from the clump anchor (optionally jittered). Auto-placed anchors
    get uniformly random residual slack between clumps, so every inter-clump
    gap is at least beta/M. With jitter > 0 the certified alpha degrades to
    alpha*(1 - jitter/4), the worst-case spacing loss.
    """
    rng = np.random.default_rng(seed)
    m = spec.M
    A = spec.num_clumps
    step = spec.alpha / m
    jit_max = spec.jitter * spec.alpha / (4.0 * m)
    widths = [(lam - 1) * step + jit_max for lam in spec.clump_sizes]

    if spec.anchors is not None:
        anchors = list(spec.anchors)
    else:
        need = sum(widths) + A * spec.beta / m
        if need > 1.0:
            raise InfeasibleSpecError(
                f"clump widths sum to {sum(widths):.6g} and {A} gaps of "
                f"beta/M = {spec.beta / m:.6g} need {need:.6g} > 1 of circumference"
            )
        slack = 1.0 - need
        extras = rng.dirichlet(np.ones(A)) * slack if A > 1 else np.array([slack])
        pos = rng.uniform(0.0, 1.0)
        anchors = []
        for a in range(A):
            anchors.append(pos % 1.0)
            pos += widths[a] + spec.beta / m + extras[a]

    points: list[float] = []
    for anchor, lam in zip(anchors, spec.clump_sizes):
        offsets = np.arange(lam) * step
        if jit_max > 0:
            offsets = offsets + rng.uniform(0.0, jit_max, size=lam)
        points.extend(((anchor + offsets) % 1.0).tolist())

    support = SupportSet(points)
    alpha_cert = spec.alpha * (1.0 - spec.jitter / 4.0)
    partition = validate_clumps(support, m, alpha_cert, spec.beta)
    return support, partition


class BetaCheck(NamedTuple):
    required_beta: float
    satisfied: bool


def check_beta_condition(
    partition: ClumpPartition, S: int, alpha: float
) -> BetaCheck:
    """Inter-clump gap requirement: beta >= max_a 20*sqrt(S)*lam_a^(5/2)/sqrt(alpha).

    For a single clump the gap condition is vacuous and satisfied is True
    regardless of the certified beta.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    required = max(
        20.0 * math.sqrt(S) * lam**2.5 / math.sqrt(alpha)
        for lam in partition.clump_sizes
    )
    if partition.num_clumps == 1:
        return BetaCheck(required, True)
    return BetaCheck(required, partition.beta >= required)
