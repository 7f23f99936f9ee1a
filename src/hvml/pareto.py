"""Dominance, non-dominated fronts, and exact/Monte-Carlo hypervolume in 3-D.

Volumes are measured in a minimized 3-D loss space: the region dominated by
a set of points and bounded above by one reference vector (the unit vector
unless a caller passes another). Exact volumes come from one z-axis
dimension sweep: each slab between consecutive z levels holds the 2-D
staircase of the points at or below it. ``exact_hypervolume`` sums the
staircase areas times the slab heights. ``exact_contributions`` makes the
same pass and also credits each staircase step with the area only it covers
in the slab times the slab height, which gives every point's exclusive
volume at once. A seeded Monte Carlo estimator of one point's exclusive
volume sits beside them: it counts the uniform samples in the point's box
that none of the other points, clipped to that box, covers, and tests them
only against the clipped points that no other clipped point covers.

Contribution comes in two flavours that must not be confused:

* ``exact_contribution(s)``: the volume only that point dominates, lost if
  it alone is removed (its exclusive region). Weakly dominated points,
  duplicates included, contribute exactly 0.
* ``hv_decomposition``: a disjoint partition of the whole dominated region,
  returned like ``exact_contributions`` as the total and one part per row in
  front order, each the volume its row adds when inserted in that order.
  These parts always sum to the total volume, repeated tags or not;
  exclusive contributions generally do not, because overlap regions belong
  to no single point.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # [i, j]: row i dominates row j (row i <= row j, and the rows differ)
        i, j = np.nonzero(_below(p.T, p.T) & (p[:, None, :] != p[None, :, :]).any(axis=2))
        if i.size:
            raise ValueError(f"front is not mutually non-dominating: {self.tags[i[0]]} dominates {self.tags[j[0]]}")
        return self

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(zip(self.points, self.tags))


def _below(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """[i, j]: point i of lo <= point j of hi in every component, for points
    held as the columns of (3, n) arrays; one compare per component."""
    return (lo[0][:, None] <= hi[0]) & (lo[1][:, None] <= hi[1]) & (lo[2][:, None] <= hi[2])


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
    for p, t in zip(new_pts, new_tags):
        if (pts <= p).all(axis=1).any():
            continue  # dominated by (or duplicate of) a kept point
        # no kept point equals p now, so p <= q means p dominates q
        drop = (p <= pts).all(axis=1)
        if drop.any():
            pts = pts[~drop]
            tags = [qt for qt, d in zip(tags, drop.tolist()) if not d]
        pts = np.concatenate([pts, p[None]])
        tags.append(t)
    return Front(pts, tuple(tags))


# ---------------------------------------------------------------------------
# exact volume: z-axis dimension sweep (Beume et al., IEEE TEVC 13(5), 2009)

def _reference(ref) -> np.ndarray:
    """The reference vector as a float 3-vector; anything else is refused."""
    r = np.asarray(ref, dtype=float)
    if r.shape != (3,):
        raise DimensionError(f"reference must be one 3-vector, got shape {r.shape}")
    return r


def _slabs(pts: np.ndarray, ref: np.ndarray):
    """The z-axis sweep over the points strictly below the reference: one
    slab per distinct z level, yielding the row indices, x and y of the
    points at or below that level in (x, y) lexicographic order, and the
    slab's height up to the next level (or the reference)."""
    below = np.flatnonzero((pts < ref).all(axis=1))
    order = below[np.lexsort((pts[below, 1], pts[below, 0]))]
    xs, ys, zs = pts[order].T
    levels = np.unique(zs)
    for z0, z1 in zip(levels, np.append(levels[1:], ref[2])):
        active = zs <= z0
        yield order[active], xs[active], ys[active], z1 - z0


def _strips(xs: np.ndarray, ys: np.ndarray, x_next: np.ndarray, top) -> np.ndarray:
    """Areas of the strips [x_i, x_next_i) x [min(y_0..y_i), top) of points
    sorted by x. When x_next_i is x_{i+1} and the last one a right edge, the
    strips tile the union of the boxes [x_i, right edge) x [y_i, top)."""
    return (x_next - xs) * (top - np.minimum.accumulate(ys))


def _slab_area(xs: np.ndarray, ys: np.ndarray, ref: np.ndarray) -> float:
    """Area of the union of the rectangles [x_i, rx) x [y_i, ry)."""
    return float(np.sum(_strips(xs, ys, np.append(xs[1:], ref[0]), ref[1])))


def _hv_sweep(pts: np.ndarray, ref: np.ndarray) -> float:
    """Volume of the union of boxes [p, ref]: the sum over slabs of the
    staircase area of the points at or below the slab times its height."""
    vol = 0.0
    for _, xs, ys, height in _slabs(pts, ref):
        vol += _slab_area(xs, ys, ref) * height
    return vol


def _exclusive_areas(xs: np.ndarray, ys: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per point, in the (x, y) lexicographic order of the input, the area of
    its rectangle [x, rx) x [y, ry) that no other point's rectangle covers.

    Only a step of the staircase (a point whose y is below every earlier y)
    has such an area: its rectangle among the steps alone, [x_k, x_{k+1}) x
    [y_k, y_{k-1}), less the union of the boxes of the other points whose
    last step at or before them is k, clipped to that rectangle. A point
    whose last step is j != k lies in j's box, which misses k's rectangle.
    The clipped boxes of one step form a second staircase, and each area is
    clamped at >= 0.
    """
    step = ys < np.append(np.inf, np.minimum.accumulate(ys)[:-1])
    sx, sy = xs[step], ys[step]
    right = np.append(sx[1:], ref[0])
    top = np.append(ref[1], sy[:-1])
    area = (right - sx) * (top - sy)
    rest = ~step
    if rest.any():
        owner = np.cumsum(step)[rest] - 1
        qx, q_top = xs[rest], top[owner]
        last = np.append(owner[1:] != owner[:-1], True)
        q_next = np.where(last, right[owner], np.append(qx[1:], 0.0))
        # a later step's clipped y lie at or below the y of every earlier
        # step, so one running minimum over all of them restarts at each step
        cut = _strips(qx, np.minimum(ys[rest], q_top), q_next, q_top)
        area -= np.bincount(owner, weights=cut, minlength=sx.size)
    out = np.zeros(xs.size)
    out[step] = np.maximum(area, 0.0)
    return out


# ---------------------------------------------------------------------------
# public volume operations

def exact_hypervolume(front, ref=UNIT_REF) -> float:
    """Exact volume of the region dominated by the points and bounded by the
    reference vector: the union of the boxes [p, ref]. Points not strictly
    below the reference in every component add nothing."""
    pts, _ = _points_tags(front)
    return _hv_sweep(pts, _reference(ref))


def exact_contributions(front, ref=UNIT_REF) -> tuple[float, np.ndarray]:
    """Total volume and the exclusive volume of every row, in front order,
    from one z-axis sweep.

    A row's exclusive volume is the part of its box [p, ref] that no other
    row's box covers, the volume lost if it alone were removed. In each slab
    the row's exclusive area (see ``_exclusive_areas``) times the slab height
    adds to it. Rows that another row weakly dominates (duplicates included)
    and rows not strictly below the reference get exactly 0.0. The total is
    the one ``exact_hypervolume`` gives, bit for bit.
    """
    pts, _ = _points_tags(front)
    ref = _reference(ref)
    total = 0.0
    contribs = np.zeros(pts.shape[0])
    for rows, xs, ys, height in _slabs(pts, ref):
        total += _slab_area(xs, ys, ref) * height
        contribs[rows] += _exclusive_areas(xs, ys, ref) * height
    # a row is weakly covered by another when it is not the only row below it
    contribs[(np.count_nonzero(_below(pts.T, pts.T), axis=0) > 1) | ~(pts < ref).all(axis=1)] = 0.0
    return total, contribs


def _tag_index(tags: list[str], tag) -> int:
    try:
        return tags.index(str(tag))
    except ValueError:
        raise KeyError(f"tag {tag!r} not present in front") from None


def exact_contribution(front, tag, ref=UNIT_REF) -> float:
    """Exclusive volume of the (first) row with this tag: the part of its box
    below the reference vector that no other row's box covers, taken from
    ``exact_contributions``. Exactly 0.0 when another row weakly dominates it
    or when it is not strictly below the reference."""
    _, tags = _points_tags(front)
    i = _tag_index(tags, tag)
    return float(exact_contributions(front, ref)[1][i])


def hv_decomposition(front, ref=UNIT_REF) -> tuple[float, np.ndarray]:
    """Total volume and a disjoint partition of it: one part per row, in
    front order.

    Each row is attributed the volume it adds when inserted in front order,
    so the parts are disjoint, cover the whole region, and sum to the total
    volume (this is the decomposition identity the tests verify against
    independent oracles). A row that an earlier row weakly dominates (an
    earlier duplicate included) receives 0.
    """
    pts, _ = _points_tags(front)
    ref = _reference(ref)
    parts = np.zeros(pts.shape[0])
    prev_vol = 0.0
    for i in range(pts.shape[0]):
        cur_vol = _hv_sweep(pts[: i + 1], ref)
        parts[i] = max(0.0, cur_vol - prev_vol)
        prev_vol = cur_vol
    return prev_vol, parts


def mc_contribution(front, tag, ref=UNIT_REF, g: int = 10_000, seed=0) -> float:
    """Monte Carlo estimate of ``exact_contribution``.

    Draws g points uniformly from the sampling space [0,1]^3 and counts the
    samples inside the tagged row's box [p, ref) that no other row's box
    covers; returns hits / g (the sampling space has unit volume). Inside
    that box another row q covers a sample s exactly when max(q, p) <= s, so
    the samples are tested only against the distinct clipped rows max(q, p)
    that no other clipped row weakly covers. Deterministic for a fixed seed.
    Exactly 0.0, with no draw, when another row weakly dominates the row or
    the row is not strictly below the reference.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    pts, tags = _points_tags(front)
    ref = _reference(ref)
    i = _tag_index(tags, tag)
    p = pts[i]
    others = np.delete(pts, i, axis=0)
    if not (p < ref).all() or (others <= p).all(axis=1).any():
        return 0.0
    z = np.random.default_rng(seed).random((int(g), 3)).T.copy()
    z = z.compress(((z >= p[:, None]) & (z < ref[:, None])).all(axis=0), axis=1)
    # in lexicographic order a clipped row can be weakly covered only by an
    # earlier one, so this keeps the first of equal rows and drops the rest
    clipped = np.maximum(others, p)
    clipped = clipped[np.lexsort(clipped.T)].T.copy()
    k = np.arange(clipped.shape[1])
    clipped = clipped.compress(~(_below(clipped, clipped) & (k[:, None] < k)).any(axis=0), axis=1)
    return (z.shape[1] - np.count_nonzero(_below(clipped, z).any(axis=0))) / float(g)
