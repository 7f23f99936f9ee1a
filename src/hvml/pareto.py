"""Dominance, non-dominated fronts, and exact/Monte-Carlo hypervolume in 3-D.

Volumes are measured in a minimized 3-D loss space: the region dominated by
a set of points and bounded above by one reference vector (the unit vector
unless a caller passes another). The exact volume comes from a single
z-axis dimension sweep; a seeded Monte Carlo estimator of the per-point
contribution sits beside it.

Contribution comes in two flavours that must not be confused:

* ``exact_contribution``: the volume lost if one point is removed from the
  front (its exclusive region). Dominated points contribute exactly 0.
* ``hv_decomposition``: a disjoint partition of the whole dominated region,
  attributing to each point the volume it adds when inserted in front
  order. These partition contributions always sum to the total volume;
  exclusive contributions generally do not, because overlap regions belong
  to no single point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

UNIT_REF = np.ones(3)


def dominates(a, b) -> bool:
    """True iff a <= b in every component and a < b in at least one."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


@dataclass(frozen=True)
class Front:
    """A set of mutually non-dominating loss vectors with provenance tags."""

    points: np.ndarray
    tags: tuple[str, ...]

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = np.empty((0, 3))
        if pts.shape[1] != 3:
            raise DimensionError(f"front points must be 3-D, got shape {pts.shape}")
        if len(self.tags) != pts.shape[0]:
            raise DimensionError("one tag per front point required")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))

    def validate(self) -> "Front":
        """Check the Front invariants: components in [0,1], mutual non-domination."""
        p = self.points
        if p.size and ((p < 0).any() or (p > 1).any()):
            raise ValueError("front components must lie in [0, 1]")
        for i in range(len(p)):
            for j in range(len(p)):
                if i != j and dominates(p[i], p[j]):
                    raise ValueError(f"front is not mutually non-dominating: {self.tags[i]} dominates {self.tags[j]}")
        return self

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(zip(self.points, self.tags))


def _points_tags(front) -> tuple[np.ndarray, list[str]]:
    """The points and tags of a Front or of a sequence of (3-vector, tag) pairs."""
    if isinstance(front, Front):
        return front.points, list(front.tags)
    items = list(front)
    if not all(isinstance(item, (tuple, list)) and len(item) == 2 and np.shape(item[0]) == (3,)
               for item in items):
        raise DimensionError("a front is a Front or a sequence of (3-vector, tag) pairs")
    return np.array([p for p, _ in items], dtype=float).reshape(-1, 3), [str(t) for _, t in items]


def update_reference_set(front: Front, new_points) -> Front:
    """Mutually non-dominated subset of the union of a front and new points,
    in order: a new point weakly dominated by a kept one (its duplicate
    included) is dropped, and an accepted one drops the points it dominates."""
    pts, tags = _points_tags(front)
    new_pts, new_tags = _points_tags(new_points)
    cur = list(zip(pts, tags))
    for p, t in zip(new_pts, new_tags):
        if any(np.all(q <= p) for q, _ in cur):
            continue  # dominated by (or duplicate of) an incumbent
        cur = [(q, qt) for q, qt in cur if not (np.all(p <= q) and np.any(p < q))]
        cur.append((p, t))
    return Front([q for q, _ in cur], tuple(t for _, t in cur))


# ---------------------------------------------------------------------------
# exact volume: z-axis dimension sweep (Beume et al., IEEE TEVC 13(5), 2009)

def _reference(ref) -> np.ndarray:
    """The reference vector as a float 3-vector; anything else is refused."""
    r = np.asarray(ref, dtype=float)
    if r.shape != (3,):
        raise DimensionError(f"reference must be one 3-vector, got shape {r.shape}")
    return r


def _staircase_area(xs: np.ndarray, ys: np.ndarray, rx: float, ry: float) -> float:
    """Area of the union of rectangles [x_i, rx] x [y_i, ry]."""
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ys = np.minimum.accumulate(ys[order])
    x_next = np.append(xs[1:], rx)
    return float(np.sum((x_next - xs) * (ry - ys)))


def _hv_sweep(pts: np.ndarray, ref: np.ndarray) -> float:
    """Volume of the union of boxes [p, ref]: one slab per distinct z level,
    each the 2-D staircase area of the points at or below it."""
    pts = pts[(pts < ref).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    order = np.argsort(pts[:, 2], kind="stable")
    pts = pts[order]
    z_levels = np.unique(pts[:, 2])
    z_next = np.append(z_levels[1:], ref[2])
    vol = 0.0
    for z0, z1 in zip(z_levels, z_next):
        active = pts[pts[:, 2] <= z0]
        vol += _staircase_area(active[:, 0], active[:, 1], ref[0], ref[1]) * (z1 - z0)
    return vol


# ---------------------------------------------------------------------------
# public volume operations

def exact_hypervolume(front, ref=UNIT_REF) -> float:
    """Exact volume of the region dominated by the points and bounded by the
    reference vector: the union of the boxes [p, ref]. Points not strictly
    below the reference in every component add nothing."""
    pts, _ = _points_tags(front)
    return _hv_sweep(pts, _reference(ref))


def _tag_index(tags: list[str], tag) -> int:
    try:
        return tags.index(str(tag))
    except ValueError:
        raise KeyError(f"tag {tag!r} not present in front") from None


def exact_contribution(front, tag, ref=UNIT_REF) -> float:
    """Exclusive volume of one point below the reference vector: total volume
    minus the volume without it.

    Exactly 0.0 (no arithmetic involved) when another point weakly dominates
    the tagged point or when the point is not strictly below the reference.
    """
    pts, tags = _points_tags(front)
    ref = _reference(ref)
    i = _tag_index(tags, tag)
    p = pts[i]
    others = np.delete(pts, i, axis=0)
    if not (p < ref).all():
        return 0.0
    if others.size and (others <= p).all(axis=1).any():
        return 0.0
    return max(0.0, _hv_sweep(pts, ref) - _hv_sweep(others, ref))


@dataclass
class HvResult:
    """Total dominated volume and a disjoint per-tag partition of it."""

    total: float
    contributions: dict[str, float] = field(default_factory=dict)


def hv_decomposition(front, ref=UNIT_REF) -> HvResult:
    """Partition the dominated region into disjoint per-point pieces.

    Each point is attributed the volume it adds when inserted in front
    order, so the pieces are disjoint, cover the whole region, and sum to
    the total volume (this is the decomposition identity the tests verify
    against independent oracles). Duplicate and dominated points receive 0.
    """
    pts, tags = _points_tags(front)
    ref = _reference(ref)
    contributions: dict[str, float] = {}
    prev_vol = 0.0
    for i, t in enumerate(tags):
        cur_vol = _hv_sweep(pts[: i + 1], ref)
        contributions[t] = max(0.0, cur_vol - prev_vol)
        prev_vol = cur_vol
    return HvResult(total=prev_vol, contributions=contributions)


def mc_contribution(front, tag, ref=UNIT_REF, g: int = 10_000, seed=0) -> float:
    """Monte Carlo estimate of ``exact_contribution``.

    Draws g points uniformly from the sampling space [0,1]^3 and counts hits
    inside the tagged point's exclusive region below the reference vector;
    returns hits / g (the sampling space has unit volume). Deterministic for
    a fixed seed.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    pts, tags = _points_tags(front)
    ref = _reference(ref)
    i = _tag_index(tags, tag)
    p = pts[i]
    others = np.delete(pts, i, axis=0)
    if not (p < ref).all():
        return 0.0
    if others.size and (others <= p).all(axis=1).any():
        return 0.0
    rng = np.random.default_rng(seed)
    z = rng.random((int(g), 3))
    sub = z[(z >= p).all(axis=1)]
    if others.size and sub.size:
        alive = np.ones(sub.shape[0], dtype=bool)
        for q in others:
            alive &= ~(sub >= q).all(axis=1)
            if not alive.any():
                break
        sub = sub[alive]
    return int((sub < ref).all(axis=1).sum()) / float(g)
