"""Independent reference implementations used only to check the package.

Everything here is deliberately written in the most direct way possible
(per-sample loops, explicit enumeration, rasterization) and shares no code
with the implementations under test. ``tagged`` is the one helper: it gives
a points array the (3-vector, tag) pair form the package's front functions
take.
"""

import numpy as np


def brute_lrap(scores, truth):
    """LRAP by direct per-sample enumeration (ranks count >= scores)."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    totals = []
    for s_row, t_row in zip(scores, truth):
        pos = [j for j in range(len(t_row)) if t_row[j] == 1]
        if not pos:
            continue
        acc = 0.0
        for j in pos:
            rank = sum(1 for k in range(len(s_row)) if s_row[k] >= s_row[j])
            above = sum(1 for k in pos if s_row[k] >= s_row[j])
            acc += above / rank
        totals.append(acc / len(pos))
    return sum(totals) / len(totals)


def cube_lrap(scores, truth):
    """LRAP from the N x K x K cube of all label pairs, per-sample mean then
    mean over samples that have a positive label (the package's former
    implementation, chunked to keep the cube near 2e6 entries)."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(truth) == 1
    counted = positives.any(axis=1)
    sc = scores[counted]
    pos = positives[counted]
    per_sample = np.empty(sc.shape[0])
    chunk = max(1, int(2e6) // (scores.shape[1] * scores.shape[1] + 1))
    for lo in range(0, sc.shape[0], chunk):
        sb = sc[lo:lo + chunk]
        pb = pos[lo:lo + chunk]
        at_least = sb[:, None, :] >= sb[:, :, None]        # [i, j, k]: score_k >= score_j
        rank = at_least.sum(axis=2)
        true_above = (at_least & pb[:, None, :]).sum(axis=2)
        frac = np.where(pb, true_above / rank, 0.0)
        per_sample[lo:lo + chunk] = frac.sum(axis=1) / pb.sum(axis=1)
    return float(per_sample.mean())


def masked_sigmoid(x):
    """The logistic function by boolean masks: 1/(1+e^-x) on x >= 0 and
    e^x/(1+e^x) elsewhere, each branch on its own entries only."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def two_pass_standardize(m, eps=1e-8):
    """Per-row z-score from numpy's mean and population std, each of which
    computes the row mean itself; std deviations below eps count as eps."""
    a = np.asarray(m, dtype=float)
    mean = a.mean(axis=-1, keepdims=True)
    std = a.std(axis=-1, keepdims=True)
    return (a - mean) / np.maximum(std, eps)


def split_forward(flat, d, c, k, x):
    """The network's forward pass from the package's former parts: the flat
    vector cut by np.cumsum/np.split, biases added out of place, the
    two-pass standardization and the masked sigmoid."""
    x = np.asarray(x, dtype=float)
    bounds = np.cumsum([d * c, c, c * c, c, c * k, k])
    e, b_e, w, b_w, dec, b_dec = np.split(np.asarray(flat, dtype=float), bounds[:-1])
    h = masked_sigmoid(two_pass_standardize(x @ e.reshape(d, c) + b_e))
    h = masked_sigmoid(two_pass_standardize(h @ w.reshape(c, c) + b_w))
    return masked_sigmoid(h @ dec.reshape(c, k) + b_dec)


def two_log_bce(scores, truth, eps=1e-7):
    """BCE from both logarithms of every clipped score, log(p) and
    log1p(-p), one of them kept per entry by the truth (the package's former
    form): the mean over samples of the per-sample sums."""
    p = np.clip(np.asarray(scores, dtype=float), eps, 1.0 - eps)
    per_sample = -np.where(np.asarray(truth) == 1, np.log(p), np.log1p(-p)).sum(axis=1)
    return float(per_sample.mean())


def mean_hamming(pred, truth):
    """Hamming loss as numpy's mean of the mismatch matrix (the package's
    former form)."""
    return float(np.mean(np.asarray(pred) != np.asarray(truth)))


def gather_lrap(scores, truth):
    """LRAP by the package's former gather: each positive's own score by
    (row, label) fancy indexing, counts by boolean sums, and the per-positive
    weight 1 / (positives in its row * rows with a positive)."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth) == 1
    rows, labels = np.nonzero(t)
    per_row = np.count_nonzero(t, axis=1)
    weights = 1.0 / (per_row[rows] * np.count_nonzero(per_row))
    at_least = np.take(s.T, rows, axis=1) >= s[rows, labels]
    rank = at_least.sum(axis=0)
    true_above = (at_least & t[rows].T).sum(axis=0)
    return float(np.sum(weights * (true_above / rank)))


def gather_bce(scores, truth, eps=1e-7):
    """BCE by the package's former gather: the clipped scores of the positive
    and of the negative entries, each taken by flat (row * K + label) index
    in row-major order, one logarithm per entry (log(p) at a positive,
    log1p(-p) at a negative), the two sums added and divided by the number
    of samples."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth) == 1
    p = np.clip(s, eps, 1.0 - eps)
    pos, neg = p.take(np.flatnonzero(t)), p.take(np.flatnonzero(~t))
    return -float(np.log(pos).sum() + np.log1p(-neg).sum()) / s.shape[0]


def brute_hamming(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    wrong = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            wrong += int(pred[i, j] != truth[i, j])
    return wrong / (pred.shape[0] * pred.shape[1])


def brute_micro_f1(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    tp = fp = fn = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            if pred[i, j] == 1 and truth[i, j] == 1:
                tp += 1
            elif pred[i, j] == 1:
                fp += 1
            elif truth[i, j] == 1:
                fn += 1
    if 2 * tp + fp + fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def grid_hv(points, resolution=200):
    """Hypervolume against ref (1,1,1) by rasterization on a regular grid.

    Exact when every coordinate is a multiple of 1/resolution: the dominated
    region is then a union of whole cells. Accumulates one 2-D layer per
    z-slice to keep memory flat.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    idx = np.rint(pts * resolution).astype(int)
    assert np.allclose(idx / resolution, pts, atol=1e-12), "points must be grid-aligned"
    order = np.argsort(idx[:, 2], kind="stable")
    idx = idx[order]
    covered = np.zeros((resolution, resolution), dtype=bool)
    cells = 0
    next_pt = 0
    for z in range(resolution):
        while next_pt < len(idx) and idx[next_pt, 2] <= z:
            covered[idx[next_pt, 0]:, idx[next_pt, 1]:] = True
            next_pt += 1
        cells += int(covered.sum())
    return cells / resolution**3


def tagged(points):
    """Rows of a points array as the (3-vector, tag) pairs the package's front
    functions take, tagged by row index."""
    return [(p, str(i)) for i, p in enumerate(np.asarray(points, dtype=float).reshape(-1, 3))]


def nondominated_filter(pairs):
    """Batch non-dominated filter of (vector, tag) pairs by the full n x n
    comparison matrix: the points no other point dominates, a duplicate kept
    at its first occurrence, survivors in input order. Returns (points, tags)."""
    pts = np.array([p for p, _ in pairs], dtype=float).reshape(-1, 3)
    le = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
    eq = (pts[:, None, :] == pts[None, :, :]).all(axis=2)
    dominated = (le & ~eq).any(axis=0)
    earlier_dup = np.array([eq[:j, j].any() for j in range(len(pts))], dtype=bool)
    keep = ~dominated & ~earlier_dup
    return pts[keep], tuple(str(t) for (_, t), k in zip(pairs, keep) if k)


def loop_merge(pairs, new_pairs):
    """Merge (vector, tag) pairs into the non-dominated list ``pairs`` one
    at a time by a Python loop over the kept points (the package's former
    merge): a new point weakly dominated by a kept one is dropped, an
    accepted one drops the points it dominates and goes last. Returns
    (points, tags)."""
    cur = [(np.asarray(p, dtype=float), str(t)) for p, t in pairs]
    for p, t in new_pairs:
        p = np.asarray(p, dtype=float)
        if any(np.all(q <= p) for q, _ in cur):
            continue
        cur = [(q, qt) for q, qt in cur if not (np.all(p <= q) and np.any(p < q))]
        cur.append((p, str(t)))
    return np.array([q for q, _ in cur], dtype=float).reshape(-1, 3), tuple(t for _, t in cur)


def first_dominating_pair(pairs):
    """The tags (a, b) of the first pair, in row-major order over the rows,
    where row a dominates row b (the package's former ``Front.validate``
    double loop over ``dominates``), or None."""
    for a, ta in pairs:
        for b, tb in pairs:
            if np.all(np.asarray(a) <= b) and np.any(np.asarray(a) < b):
                return str(ta), str(tb)
    return None


def mc_box_union_volume(los, his, n_samples=200_000, seed=0):
    """Monte Carlo volume of a union of boxes inside [0,1]^3."""
    rng = np.random.default_rng(seed)
    z = rng.random((n_samples, 3))
    inside = np.zeros(n_samples, dtype=bool)
    for lo, hi in zip(los, his):
        inside |= ((z > lo) & (z < hi)).all(axis=1)
    return inside.mean()


def iex_hv(points, ref=(1.0, 1.0, 1.0)):
    """Hypervolume by inclusion-exclusion over every non-empty subset.

    The boxes [p, ref] of a subset intersect in the box [componentwise max,
    ref]; subsets are enumerated depth-first so each costs one corner update.
    Exponential in the number of points: keep fronts to about 20 rows.
    """
    pts = [tuple(float(v) for v in p) for p in np.asarray(points, dtype=float).reshape(-1, 3)]
    rx, ry, rz = (float(r) for r in ref)

    def subsets(start, corner, sign):
        total = 0.0
        for b in range(start, len(pts)):
            cx = max(corner[0], pts[b][0])
            cy = max(corner[1], pts[b][1])
            cz = max(corner[2], pts[b][2])
            total += sign * max(0.0, rx - cx) * max(0.0, ry - cy) * max(0.0, rz - cz)
            total += subsets(b + 1, (cx, cy, cz), -sign)
        return total

    return subsets(0, (-np.inf, -np.inf, -np.inf), 1.0)


def slab_hv(points, ref=(1.0, 1.0, 1.0)):
    """Hypervolume by a z-axis slab loop: one slab per distinct z level of the
    points strictly below the reference, each the 2-D staircase area of the
    points at or below it, found by a fresh sort per slab."""
    ref = np.asarray(ref, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pts = pts[(pts < ref).all(axis=1)]
    levels = sorted(set(pts[:, 2].tolist()))
    vol = 0.0
    for z0, z1 in zip(levels, levels[1:] + [float(ref[2])]):
        layer = sorted((x, y) for x, y, z in pts.tolist() if z <= z0)
        area, low = 0.0, float(ref[1])
        for k, (x, y) in enumerate(layer):
            low = min(low, y)
            x_next = layer[k + 1][0] if k + 1 < len(layer) else float(ref[0])
            area += (x_next - x) * (ref[1] - low)
        vol += area * (z1 - z0)
    return vol


def loop_exact_contributions(points, ref=(1.0, 1.0, 1.0)):
    """Total volume and exclusive volume of every row by a Python loop over
    the slabs of the z-axis sweep (the package's former kernel): per distinct
    z level, the points at or below it in (x, y) order, the staircase area
    times the slab height for the total, and per staircase step its
    rectangle [x_k, x_next_step) x [y_k, y_prev_step) less the second
    staircase of the clipped boxes of the points it owns, clamped at >= 0.
    Weakly dominated rows and rows not strictly below the reference are set
    to 0.0 at the end. Returns (total, contributions in row order)."""
    ref = np.asarray(ref, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    below = np.flatnonzero((pts < ref).all(axis=1))
    order = below[np.lexsort((pts[below, 1], pts[below, 0]))]
    xs_all, ys_all, zs = pts[order].T
    levels = np.unique(zs)
    total = 0.0
    contribs = np.zeros(pts.shape[0])
    for z0, z1 in zip(levels, np.append(levels[1:], ref[2])):
        active = zs <= z0
        rows, xs, ys, height = order[active], xs_all[active], ys_all[active], z1 - z0
        total += float(np.sum((np.append(xs[1:], ref[0]) - xs)
                              * (ref[1] - np.minimum.accumulate(ys)))) * height
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
            cut = (q_next - qx) * (q_top - np.minimum.accumulate(np.minimum(ys[rest], q_top)))
            area -= np.bincount(owner, weights=cut, minlength=sx.size)
        areas = np.zeros(xs.size)
        areas[step] = np.maximum(area, 0.0)
        contribs[rows] += areas * height
    covered = (pts[:, None, :] <= pts[None, :, :]).all(axis=2).sum(axis=0) > 1
    contribs[covered | ~(pts < ref).all(axis=1)] = 0.0
    return total, contribs


def leave_one_out_contribution(points, i, ref=(1.0, 1.0, 1.0), hv=slab_hv):
    """Exclusive volume of row i as the total volume minus the volume without
    it; 0.0 without arithmetic when another row weakly dominates row i or
    row i is not strictly below the reference."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    others = np.delete(pts, i, axis=0)
    if not (pts[i] < np.asarray(ref, dtype=float)).all() or (others <= pts[i]).all(axis=1).any():
        return 0.0
    return max(0.0, hv(pts, ref) - hv(others, ref))


def loop_mc_contribution(front, tag, ref=(1.0, 1.0, 1.0), g=10_000, seed=0):
    """Monte Carlo exclusive volume of the (first) row with this tag by a
    Python loop over the other rows (the package's former estimator): g
    uniform draws from [0, s] with s = max(1, ref) per component, the ones
    at or above the row that no other row's box covers and that lie strictly
    below the reference, over g, times the volume of [0, s].
    0.0 without a draw for a weakly dominated row or one not strictly below
    the reference. ``front`` is a Front or (3-vector, tag) pairs."""
    pts = np.array([p for p, _ in front], dtype=float).reshape(-1, 3)
    tags = [str(t) for _, t in front]
    ref = np.asarray(ref, dtype=float)
    i = tags.index(str(tag))
    p = pts[i]
    others = np.delete(pts, i, axis=0)
    if not (p < ref).all():
        return 0.0
    if others.size and (others <= p).all(axis=1).any():
        return 0.0
    span = np.maximum(ref, 1.0)
    rng = np.random.default_rng(seed)
    z = rng.random((int(g), 3)) * span
    sub = z[(z >= p).all(axis=1)]
    if others.size and sub.size:
        alive = np.ones(sub.shape[0], dtype=bool)
        for q in others:
            alive &= ~(sub >= q).all(axis=1)
            if not alive.any():
                break
        sub = sub[alive]
    return int((sub < ref).all(axis=1).sum()) / float(g) * float(np.prod(span))


def dense_covariance(state):
    """The covariance of a CmaState as a dense matrix, rebuilt by the update
    recurrence C' = (1 - c) C + c v v^T from C_0 = I over its update vectors,
    oldest first."""
    cov = np.eye(state.n_dims)
    for v in state.cov_steps:
        cov = (1.0 - state.c_cov) * cov + state.c_cov * np.outer(v, v)
    return cov


def dense_sample_population(state, seed):
    """The population sampler by a dense factorization, m + sigma z chol(C)^T,
    with z the first (lambda, L) standard-normal block of the seed's stream."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((state.lambda_pop, state.n_dims))
    if state.sigma == 0.0:
        return np.tile(state.mean, (state.lambda_pop, 1))
    return state.mean + state.sigma * (z @ np.linalg.cholesky(dense_covariance(state)).T)


def expression_sample_population(state, seed):
    """The population sampler as one expression on fresh arrays (the
    package's former form), m + sigma (sqrt(a) z + (n sqrt(w)) V), with
    a = (1 - c)^t, w_j = c (1 - c)^(t-1-j) and V the update vectors, oldest
    first; z and n are the seed's first (lambda, L) and (lambda, t)
    standard-normal blocks, in that order."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((state.lambda_pop, state.n_dims))
    if state.sigma == 0.0:
        return np.tile(state.mean, (state.lambda_pop, 1))
    keep = max(0.0, 1.0 - state.c_cov)
    t = state.cov_steps.shape[0]
    a, w = keep**t, state.c_cov * keep ** np.arange(t - 1, -1, -1, dtype=float)
    n = rng.standard_normal((state.lambda_pop, t))
    return state.mean + state.sigma * (np.sqrt(a) * z + (n * np.sqrt(w)) @ state.cov_steps)


def loop_iterative_stratify(y, proportions, rng):
    """Iterative stratification by a scan of every sample per label round
    (the package's former implementation): rarest remaining label first,
    each of its unassigned positives, in one seeded permutation's order, to
    the fold that most wants the label, ties to the fold with the most
    remaining capacity, then to ``rng.choice``; samples with no positive
    label last, to the fold with the most remaining capacity."""
    n, k = y.shape
    props = np.asarray(proportions, dtype=float)
    props = props / props.sum()
    fold_capacity = props * n
    label_desired = props[:, None] * y.sum(axis=0)[None, :]
    fold_of = np.full(n, -1, dtype=np.int64)
    priority = rng.permutation(n)  # fixed iteration order for sample processing

    while True:
        unassigned = fold_of < 0
        remaining = y[unassigned].sum(axis=0) if unassigned.any() else np.zeros(k)
        candidates = np.flatnonzero(remaining > 0)
        if candidates.size == 0:
            break
        label = candidates[np.argmin(remaining[candidates])]
        for s in priority:
            if fold_of[s] >= 0 or y[s, label] == 0:
                continue
            want = label_desired[:, label]
            best = np.flatnonzero(want == want.max())
            if best.size > 1:
                cap = fold_capacity[best]
                best = best[np.flatnonzero(cap == cap.max())]
            j = int(best[0]) if best.size == 1 else int(rng.choice(best))
            fold_of[s] = j
            fold_capacity[j] -= 1.0
            label_desired[j, y[s] > 0] -= 1.0
    for s in priority:  # samples with no positive label
        if fold_of[s] >= 0:
            continue
        best = np.flatnonzero(fold_capacity == fold_capacity.max())
        j = int(best[0]) if best.size == 1 else int(rng.choice(best))
        fold_of[s] = j
        fold_capacity[j] -= 1.0
    return fold_of


def loop_midranks(values):
    """Ranks 1..n of a vector (ascending), ties sharing the average position,
    by one pass over the stably sorted values and their tie groups (the
    package's former implementation)."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks
