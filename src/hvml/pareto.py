"""Dominance, non-dominated fronts, and exact/Monte-Carlo hypervolume in 3-D.

Volumes are measured in a minimized 3-D loss space: the region dominated by
a set of points and bounded above by one reference vector (the unit vector
unless a caller passes another). Exact volumes come from one z-axis
dimension sweep, held in one (levels x points) array: each slab between
consecutive z levels holds the 2-D staircase of the points at or below it,
and one row of the array is that staircase (see ``_sweep``).
``exact_hypervolume`` sums the staircase areas times the slab heights.
``exact_contributions`` runs the same array and also credits each staircase
step with the area only it covers in its slab times the slab height, which
gives every point's exclusive volume at once. There is no Python loop over
slabs or points. The rows are independent, so the array is built in blocks
of rows of at most ``_BLOCK`` entries each: one block for any front of up to
724 points (an archive at the default cap plus one population included),
and memory bounded by ``_BLOCK`` entries per array for a front of any
length. A seeded Monte Carlo estimator of one point's exclusive volume sits
beside them: it counts the uniform samples in the point's box that none of
the other points, clipped to that box, covers, and tests them only against
the clipped points that no other clipped point covers.

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
    as if the new points were merged one at a time, in order: a new point
    weakly dominated by a kept one (its duplicate included) is dropped, an
    accepted one drops the points it dominates and goes last.

    Every point seen so far is weakly dominated by a kept one, so that merge
    accepts a new point exactly when no front point and no earlier new point
    weakly dominates it; an accepted point stays exactly when no later new
    point dominates it; and a front point stays exactly when no accepted
    point weakly dominates it. All three are decided at once, comparing each
    new point with the front and with the other new points, never front
    points with one another."""
    pts, tags = _points_tags(front)
    new_pts, new_tags = _points_tags(new_points)
    # [j, i]: new point j <= new point i; strictly, when not also i <= j
    le = _below(new_pts.T, new_pts.T)
    later = np.tri(len(new_tags), k=-1, dtype=bool)       # [j, i]: j > i
    accepted = ~(_below(pts.T, new_pts.T).any(axis=0) | (le & later.T).any(axis=0))
    stays = accepted & ~(le & ~le.T & later).any(axis=0)
    kept = ~_below(new_pts[accepted].T, pts.T).any(axis=0)
    return Front(np.concatenate([pts[kept], new_pts[stays]]),
                 tuple(t for t, k in zip(tags + new_tags, kept.tolist() + stays.tolist()) if k))


# ---------------------------------------------------------------------------
# exact volume: z-axis dimension sweep (Beume et al., IEEE TEVC 13(5), 2009)

def _reference(ref) -> np.ndarray:
    """The reference vector as a float 3-vector; anything else is refused."""
    r = np.asarray(ref, dtype=float)
    if r.shape != (3,):
        raise DimensionError(f"reference must be one 3-vector, got shape {r.shape}")
    return r


_BLOCK = 1 << 19  # most entries of one block of the sweep array (4 MB as float64)


def _sweep(pts: np.ndarray, ref: np.ndarray, exclusive: bool = False):
    """The total volume of the z-axis sweep over the points strictly below the
    reference and, with ``exclusive``, every row's exclusive volume (else
    None), from one (levels x points) array.

    Rows are the distinct z levels, columns the points in (x, y) order.
    Entry [l, i] is y_i if point i is active in slab l (z_i <= level l), else
    ref_y, so one running minimum ``low`` along the rows is every slab's
    staircase, and the strips [x_i, x_{i+1}) (the last to ref_x) tile it:
    the total is sum_l height_l * sum_i width_i * (ref_y - low[l, i]).

    A step is an entry below the running minimum ``prev`` before it. It owns
    the strips up to the next step of its row, which lie in its rectangle
    [x_k, x_next_step) x [y_k, prev_k); no earlier point reaches into that
    rectangle, and in each strip the points it owns cover it from their
    lowest y up. So a second running minimum M of max(y, prev) (prev at a
    step, y at another active entry, ref_y at an inactive one) is the lowest
    covered y, and the step's exclusive area is the sum over its strips of
    ``free`` = width * (M - low). One ``np.add.reduceat`` over the steps in
    row-major order sums them (entries before a row's first step add exact
    zeros), and one ``np.bincount`` credits each area times its slab height
    to the step's row. A weakly dominated row is never a step, or (when it
    shares x and y with the later row that covers it) a step whose strips
    have zero width until M falls to its y there, so it gets exactly 0.0, as
    do the rows not strictly below the reference.

    The rows are built and summed in blocks of at most ``_BLOCK`` entries;
    the staircase areas are kept per row and summed once, so the total does
    not depend on the block size, and a front that fits in one block gets
    the same contributions as a single array would give.
    """
    below = np.flatnonzero((pts < ref).all(axis=1))
    order = below[np.lexsort((pts[below, 1], pts[below, 0]))]
    xs, ys, zs = pts[order].T
    levels = np.unique(zs)
    height = np.diff(np.append(levels, ref[2]))
    width = np.diff(np.append(xs, ref[0]))
    area = np.empty(levels.size)
    contrib = np.zeros(pts.shape[0]) if exclusive else None
    rows = max(1, _BLOCK // max(xs.size, 1))
    for first in range(0, levels.size, rows):
        y = np.where(zs <= levels[first:first + rows, None], ys, ref[1])
        run = np.minimum.accumulate(np.hstack([np.full((y.shape[0], 1), ref[1]), y]), axis=1)
        low, prev = run[:, 1:], run[:, :-1]
        area[first:first + rows] = ((ref[1] - low) * width).sum(axis=1)
        if exclusive:
            steps = np.flatnonzero(y < prev)
            free = np.minimum.accumulate(np.maximum(y, prev), axis=1) - low
            free *= width
            level, col = np.divmod(steps, xs.size)
            areas = np.add.reduceat(free.ravel(), steps) * height[first + level]
            contrib += np.bincount(order[col], areas, minlength=pts.shape[0])
    return float(np.sum(area * height)), contrib


# ---------------------------------------------------------------------------
# public volume operations

def exact_hypervolume(front, ref=UNIT_REF) -> float:
    """Exact volume of the region dominated by the points and bounded by the
    reference vector: the union of the boxes [p, ref]. Points not strictly
    below the reference in every component add nothing."""
    pts, _ = _points_tags(front)
    return _sweep(pts, _reference(ref))[0]


def exact_contributions(front, ref=UNIT_REF) -> tuple[float, np.ndarray]:
    """Total volume and the exclusive volume of every row, in front order,
    from one z-axis sweep.

    A row's exclusive volume is the part of its box [p, ref] that no other
    row's box covers, the volume lost if it alone were removed: the sum over
    slabs of its exclusive area in the slab's staircase times the slab
    height (see ``_sweep``). Rows that another row weakly dominates
    (duplicates included) and rows not strictly below the reference get
    exactly 0.0. The total is the one ``exact_hypervolume`` gives, bit for
    bit.
    """
    pts, _ = _points_tags(front)
    return _sweep(pts, _reference(ref), exclusive=True)


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
    vols = np.array([0.0] + [_sweep(pts[: i + 1], ref)[0] for i in range(pts.shape[0])])
    return float(vols[-1]), np.maximum(np.diff(vols), 0.0)


def mc_contribution(front, tag, ref=UNIT_REF, g: int = 10_000, seed=0) -> float:
    """Monte Carlo estimate of ``exact_contribution``.

    Draws g points uniformly from the sampling space [0, t_1] x [0, t_2] x
    [0, t_3], t_j = max(1, ref_j), which holds the row's box [p, ref) for
    any p in [0, 1]^3, and counts the samples inside that box that no other
    row's box covers; returns hits / g times the volume of the sampling
    space. The draws are one ``random((g, 3))`` block scaled per component
    by t, so under a reference of at most 1 (t = 1) they keep their values.
    Inside the box another row q covers a sample s exactly when
    max(q, p) <= s, so the samples are tested only against the distinct
    clipped rows max(q, p) that no other clipped row weakly covers.
    Deterministic for a fixed seed.
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
    span = np.maximum(ref, 1.0)
    z *= span[:, None]
    z = z.compress(((z >= p[:, None]) & (z < ref[:, None])).all(axis=0), axis=1)
    # in lexicographic order a clipped row can be weakly covered only by an
    # earlier one, so this keeps the first of equal rows and drops the rest
    clipped = np.maximum(others, p)
    clipped = clipped[np.lexsort(clipped.T)].T.copy()
    k = np.arange(clipped.shape[1])
    clipped = clipped.compress(~(_below(clipped, clipped) & (k[:, None] < k)).any(axis=0), axis=1)
    hits = z.shape[1] - np.count_nonzero(_below(clipped, z).any(axis=0))
    return hits / float(g) * float(np.prod(span))
