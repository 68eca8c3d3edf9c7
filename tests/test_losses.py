import math
import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np
import pytest

from egoground import losses
from egoground.autodiff import ParamStore, Tensor, _sigmoid, grad_check, make_rng
from egoground.boxes import Box9DoF, wrap_angle
from egoground.losses import (
    Assignment,
    LossWeights,
    SetTargets,
    box_regression_loss,
    focal_loss,
    hungarian,
    linear_sum_assignment,
    matching_cost,
    spatial_relevance_loss,
    total_loss,
    weighted_sum,
)
from tape_reference import abs_, add, getitem, mean, mul, neg, pow_, sigmoid, softplus, sub, sum_


def box_loss(pred: Box9DoF, gt: Box9DoF) -> float:
    """Scalar reference of the box term: L1 center + L1 log-extent ratio + L1 on (sin, cos) per angle."""
    center = float(np.abs(pred.center - gt.center).sum())
    ext = float(np.abs(np.log(pred.extents / gt.extents)).sum())
    ang = 0.0
    for pa, ga in ((pred.alpha, gt.alpha), (pred.beta, gt.beta), (pred.gamma, gt.gamma)):
        ang += abs(np.sin(pa) - np.sin(ga)) + abs(np.cos(pa) - np.cos(ga))
    return center + ext + ang


def brute_force_assignment(cost, tol=1e-9):
    """Enumerate every injective assignment; min cost, then lexicographically
    smallest pair list.  Oracle for the production matcher."""
    k, g = cost.shape
    best_cost = None
    best_pairs = None
    if k <= g:
        candidates = (tuple(zip(range(k), cols)) for cols in permutations(range(g), k))
    else:
        candidates = (tuple(sorted(zip(rows, range(g)))) for rows in permutations(range(k), g))
    for pairs in candidates:
        total = sum(cost[i, j] for i, j in pairs)
        if best_cost is None or total < best_cost - tol or (
            abs(total - best_cost) <= tol and list(pairs) < best_pairs
        ):
            best_cost = total
            best_pairs = list(pairs)
    return Assignment(pairs=best_pairs or [], total_cost=float(best_cost or 0.0))


def lex_smallest_by_resolving(cost):
    """Min cost, then the lexicographically smallest pair list, by a greedy
    that re-solves the rest of the matrix for every candidate pair.  Oracle
    for sizes brute force cannot reach."""
    def best(sub):
        if sub.shape[0] == 0 or sub.shape[1] == 0:
            return 0.0
        rows, cols, _, _ = linear_sum_assignment(sub)
        return float(sub[rows, cols].sum())

    k, g = cost.shape
    target = best(cost)
    tol = 1e-9 * max(1.0, abs(target))
    pairs, cols, row_start, acc = [], list(range(g)), 0, 0.0
    for pos in range(min(k, g)):
        need = min(k, g) - pos - 1
        chosen = None
        for i in range(row_start, k - need):
            for j in cols:
                rest = cost[np.ix_(np.arange(i + 1, k), [c for c in cols if c != j])]
                if acc + cost[i, j] + best(rest) <= target + tol:
                    chosen = (i, j)
                    break
            if chosen:
                break
        pairs.append(chosen)
        acc += cost[chosen]
        cols.remove(chosen[1])
        row_start = chosen[0] + 1
    return pairs


def min_cost_by_column_subsets(cost):
    """Exact minimum assignment cost by dynamic programming over subsets of
    the smaller side; independent of the solver, cheap while that side has
    at most a handful of entries."""
    if cost.shape[0] < cost.shape[1]:
        cost = cost.T
    g = cost.shape[1]
    best = np.full(1 << g, np.inf)
    best[0] = 0.0
    for row in cost:
        nxt = best.copy()
        for c in range(g):
            free = np.array([m for m in range(1 << g) if not m & (1 << c)])
            nxt[free | (1 << c)] = np.minimum(nxt[free | (1 << c)], best[free] + row[c])
        best = nxt
    return float(best[-1])


def test_hungarian_two_by_two_example():
    result = hungarian([[1.0, 2.0], [3.0, 1.0]])
    assert result.pairs == [(0, 0), (1, 1)]
    assert result.total_cost == pytest.approx(2.0)


def test_hungarian_matches_brute_force_square():
    rng = make_rng(307)
    for _ in range(200):
        cost = rng.normal(size=(3, 3))
        got = hungarian(cost)
        want = brute_force_assignment(cost)
        assert got.pairs == want.pairs
        assert got.total_cost == pytest.approx(want.total_cost, abs=1e-12)


def test_hungarian_matches_brute_force_rectangular():
    rng = make_rng(311)
    for _ in range(120):
        k = int(rng.integers(1, 6))
        g = int(rng.integers(1, 6))
        cost = rng.uniform(-2.0, 2.0, size=(k, g))
        got = hungarian(cost)
        want = brute_force_assignment(cost)
        assert got.pairs == want.pairs
        assert got.total_cost == pytest.approx(want.total_cost, abs=1e-12)
        assert len(got.pairs) == min(k, g)


def test_hungarian_cost_never_above_any_permutation():
    rng = make_rng(313)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        g = int(rng.integers(2, 8))
        cost = rng.normal(size=(k, g)) * 3.0
        got = hungarian(cost)
        want = brute_force_assignment(cost)
        assert got.total_cost <= want.total_cost + 1e-9


def test_hungarian_matches_brute_force_on_ties():
    rng = make_rng(367)
    for n in range(600):
        k, g = (int(x) for x in rng.integers(1, 7, size=2))
        if n % 2:
            cost = rng.integers(0, 3, size=(k, g)).astype(float)
        else:
            cost = np.round(rng.normal(size=(k, g)), 1)
        got = hungarian(cost)
        assert got.total_cost == pytest.approx(brute_force_assignment(cost).total_cost,
                                               abs=1e-12), cost
        assert got.total_cost == sum(cost[i, j] for i, j in got.pairs)
        assert hungarian(cost).pairs == got.pairs


@pytest.mark.parametrize("gap", [1e-10, 1e-6])
def test_hungarian_near_tie_tolerance(gap):
    # no tie tolerance: a gap of either size is a strict optimum and wins
    square = np.array([[gap, 0.0], [0.0, 0.0]])
    wide = np.array([[gap, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert hungarian(square).pairs == [(0, 1), (1, 0)]
    assert hungarian(wide).pairs == [(0, 1), (1, 2)]
    assert hungarian(wide.T).pairs == [(1, 0), (2, 1)]
    for cost in (square, wide, wide.T):
        assert hungarian(cost).pairs == brute_force_assignment(cost, tol=0.0).pairs


def tall_tie_matrices():
    """(32, g) costs with duplicated columns and quantised entries: many optima."""
    rng = make_rng(373)
    for g in range(1, 7):
        for trial in range(10):
            base = (rng.integers(0, 3, size=(32, g)).astype(float) if trial % 2
                    else np.round(rng.normal(size=(32, g)), 1))
            cost = base[:, rng.integers(0, g, size=g)]
            yield cost
            yield cost.T


def test_hungarian_matches_resolving_greedy_on_tall_ties():
    # many optima: the solver's pick must cost what the re-solving greedy's
    # and the subset DP's optimum cost, whichever optimum it picks
    for cost in tall_tie_matrices():
        got = hungarian(cost)
        greedy = lex_smallest_by_resolving(cost)
        assert len(got.pairs) == len(greedy) == min(cost.shape)
        assert [i for i, _ in got.pairs] == sorted(i for i, _ in got.pairs)
        assert len({j for _, j in got.pairs}) == len(got.pairs)
        assert got.total_cost == sum(cost[i, j] for i, j in got.pairs)
        assert got.total_cost == pytest.approx(sum(cost[p] for p in greedy), abs=1e-12)
        assert got.total_cost == pytest.approx(min_cost_by_column_subsets(cost), abs=1e-12)
        assert hungarian(cost).pairs == got.pairs


def test_linear_sum_assignment_duals_certify_the_optimum():
    rng = make_rng(379)
    small = [rng.normal(size=tuple(int(x) for x in rng.integers(1, 7, size=2)))
             for _ in range(100)]
    for cost in [*small, *tall_tie_matrices()]:
        k, g = cost.shape
        rows, cols, u, v = linear_sum_assignment(cost)
        assert len(rows) == min(k, g) and len(set(cols.tolist())) == len(cols)
        assert rows.tolist() == sorted(rows.tolist())
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-12
        assert np.abs(reduced[rows, cols]).max() <= 1e-12
        larger, assigned = (v, cols) if k <= g else (u, rows)
        assert (larger <= 0.0).all()
        assert (np.delete(larger, assigned) == 0.0).all()
        assert u.sum() + v.sum() == pytest.approx(cost[rows, cols].sum(), abs=1e-12)
        if max(k, g) <= 6:  # brute force reaches the small inputs only
            opt = brute_force_assignment(cost).total_cost
            assert cost[rows, cols].sum() == pytest.approx(opt, abs=1e-12)


def test_hungarian_solves_once(monkeypatch):
    shapes = []
    solve = losses.linear_sum_assignment

    def counted(cost):
        shapes.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(losses, "linear_sum_assignment", counted)
    hungarian(np.zeros((4, 4)))
    hungarian(np.round(make_rng(383).normal(size=(32, 5)), 1))
    assert shapes == [(4, 4), (32, 5)]


def test_hungarian_rejects_bad_input():
    assert hungarian(np.zeros((0, 3))).pairs == []
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        hungarian(np.zeros(3))


def test_focal_loss_reference_points():
    # confident correct positive: near-zero loss
    assert focal_loss(Tensor(np.array([[20.0]])), np.array([[1.0]]), 1.0).item() < 1e-6
    # alpha=0.25, gamma=2, p=0.9 positive
    p = 0.9
    logit = math.log(p / (1.0 - p))
    want = 0.25 * (1.0 - p) ** 2 * (-math.log(p))
    got = focal_loss(Tensor(np.array([[logit]])), np.array([[1.0]]), 1.0).item()
    assert got == pytest.approx(want, rel=1e-9)


def test_focal_loss_negative_entries_and_normalizer():
    p = 0.2
    logit = math.log(p / (1.0 - p))
    want = 0.75 * p ** 2 * (-math.log(1.0 - p))
    got = focal_loss(Tensor(np.array([[logit]])), np.array([[0.0]]), 1.0).item()
    assert got == pytest.approx(want, rel=1e-9)
    # two positives at p=0.5, summed and divided by the normalizer
    logits = Tensor(np.zeros((2, 1)))
    targets = np.ones((2, 1))
    want = 2 * 0.25 * 0.5 ** 2 * math.log(2.0)
    assert focal_loss(logits, targets, 2.0).item() == pytest.approx(want / 2.0, rel=1e-12)
    with pytest.raises(ValueError, match="normalizer"):
        focal_loss(logits, targets, 0.0)


def test_focal_loss_stable_at_extreme_logits():
    logits = Tensor(np.array([[60.0, -60.0]]))
    targets = np.array([[0.0, 1.0]])
    value = focal_loss(logits, targets, 1.0).item()
    assert np.isfinite(value) and value > 10.0


def test_focal_loss_gradcheck():
    rng = make_rng(317)
    store = ParamStore()
    store.create("logits", rng.normal(size=(4, 3)))
    targets = (rng.random((4, 3)) > 0.7).astype(float)

    def fn(s):
        return focal_loss(s["logits"], targets, 1.0)

    assert grad_check(fn, store, eps=1e-5, tol=1e-4).passed


def test_box_loss_reference_points():
    a = Box9DoF(0, 0, 0, 1, 1, 1)
    assert box_loss(a, a) == 0.0
    b = Box9DoF(1, 0, 0, 1, 1, 1)
    assert box_loss(a, b) == pytest.approx(1.0, abs=1e-12)
    c = Box9DoF(0, 0, 0, 1, 1, 1, alpha=2.0 * np.pi)
    assert box_loss(a, c) == pytest.approx(0.0, abs=1e-9)
    # near the wrap boundary the sin/cos parameterization stays small
    d = Box9DoF(0, 0, 0, 1, 1, 1, alpha=np.pi - 0.01)
    e = Box9DoF(0, 0, 0, 1, 1, 1, alpha=-np.pi + 0.01)
    assert box_loss(d, e) < 0.05
    f = Box9DoF(0, 0, 0, 2, 1, 1)
    assert box_loss(a, f) == pytest.approx(math.log(2.0), abs=1e-12)


def test_box_regression_loss_matches_float_version():
    rng = make_rng(331)
    k = 5
    centers = rng.normal(size=(k, 3))
    logext = rng.uniform(-0.5, 0.5, size=(k, 3))
    raw_sin = rng.normal(size=(k, 3))
    raw_cos = rng.normal(size=(k, 3))
    norm = np.sqrt(raw_sin**2 + raw_cos**2 + 1e-12)
    sin_n, cos_n = raw_sin / norm, raw_cos / norm
    gt = np.hstack([rng.normal(size=(3, 3)), rng.uniform(0.5, 2.0, size=(3, 3)),
                    rng.uniform(-3, 3, size=(3, 3))])
    rows = [4, 0, 2]
    tape_val = box_regression_loss(Tensor(np.hstack([centers, logext, sin_n, cos_n])),
                                   rows, gt).item()
    ref = 0.0
    for r, g in zip(rows, gt):
        pred = Box9DoF(*centers[r], *np.exp(logext[r]),
                       *(np.arctan2(sin_n[r], cos_n[r])))
        ref += box_loss(pred, Box9DoF(*g))
    assert tape_val == pytest.approx(ref / len(gt), abs=1e-9)


def test_spatial_relevance_loss_values_and_gradcheck():
    logits = Tensor(np.zeros(4))
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    assert spatial_relevance_loss(logits, labels).item() == pytest.approx(math.log(2.0), abs=1e-12)
    confident = Tensor(np.array([-50.0, 50.0]))
    assert spatial_relevance_loss(confident, np.array([0.0, 1.0])).item() < 1e-12

    rng = make_rng(337)
    store = ParamStore()
    store.create("logits", rng.normal(size=(6,)))
    lab = (rng.random(6) > 0.5).astype(float)
    assert grad_check(lambda s: spatial_relevance_loss(s["logits"], lab), store, tol=1e-5).passed


# ---------------------------------------------------------------------------
# Fused loss tails against the Tensor-op compositions they replace
# ---------------------------------------------------------------------------


def _focal_ref(logits, targets, normalizer):
    p = sigmoid(logits)
    one_minus_p = sigmoid(neg(logits))
    pos = mul(mul(pow_(one_minus_p, 2.0), softplus(neg(logits))), 0.25)
    negative = mul(mul(pow_(p, 2.0), softplus(logits)), 0.75)
    per_entry = add(mul(pos, targets), mul(negative, 1.0 - targets))
    return mul(sum_(per_entry), 1.0 / normalizer)


def _box_ref(pred, pred_rows, gt_boxes):
    if len(gt_boxes) == 0:
        return Tensor(0.0)
    picked = getitem(pred, np.asarray(pred_rows, dtype=np.intp))
    c_term = sum_(abs_(sub(getitem(picked, np.s_[:, 0:3]), gt_boxes[:, :3])))
    e_term = sum_(abs_(sub(getitem(picked, np.s_[:, 3:6]), np.log(gt_boxes[:, 3:6]))))
    s_term = sum_(abs_(sub(getitem(picked, np.s_[:, 6:9]), np.sin(gt_boxes[:, 6:]))))
    k_term = sum_(abs_(sub(getitem(picked, np.s_[:, 9:12]), np.cos(gt_boxes[:, 6:]))))
    return mul(add(add(add(c_term, e_term), s_term), k_term), 1.0 / len(gt_boxes))


def _spatial_ref(logits, labels):
    flat = logits.reshape(-1)
    return mean(sub(softplus(flat), mul(flat, labels)))


def _bytes(fn, arrays, upstream):
    """Value and every input's gradient of ``fn`` on fresh leaves, as bytes (None: no gradient)."""
    leaves = [Tensor(a) for a in arrays]
    out = fn(*leaves)
    sum_(mul(out, upstream)).backward()
    return out.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in leaves]


def _assert_same_bytes(fused, reference, arrays, rng):
    upstream = rng.normal()
    value, grads = _bytes(fused, arrays, upstream)
    ref_value, ref_grads = _bytes(reference, arrays, upstream)
    assert value == ref_value
    assert grads == ref_grads


def _extreme_logits(rng, shape):
    x = rng.normal(scale=3.0, size=shape)
    flat = x.reshape(-1)
    flat[:8] = [40.0, -40.0, 800.0, -800.0, 0.0, 36.5, -37.5, 1e-9][:flat.size]
    return x


def test_fused_focal_loss_matches_composition_bytes():
    rng = make_rng(401)
    for shape, normalizer in (((12, 6), 3.0), ((16, 1), 1.0), ((40, 6), 7.0)):
        logits = _extreme_logits(rng, shape)
        onehot = (rng.random(shape) > 0.7).astype(float)
        # fractional targets give every logit four nonzero terms, so only the
        # composition's own order of adding them keeps the bytes
        for targets in (onehot, 1.0 - onehot, np.zeros(shape), np.ones(shape),
                        rng.random(shape)):
            _assert_same_bytes(lambda x: focal_loss(x, targets, normalizer),
                               lambda x: _focal_ref(x, targets, normalizer), [logits], rng)


def test_fused_box_regression_loss_matches_composition_bytes():
    rng = make_rng(409)
    k = 6
    for rows in ([4, 0, 2], [5], [1, 1, 3], []):
        pred = np.hstack([rng.normal(size=(k, 3)), rng.uniform(-0.5, 0.5, size=(k, 3)),
                          np.sin(rng.uniform(-3, 3, size=(k, 3))),
                          np.cos(rng.uniform(-3, 3, size=(k, 3)))])
        m = len(rows)
        gt = np.hstack([rng.normal(size=(m, 3)), rng.uniform(0.5, 2.0, size=(m, 3)),
                        rng.uniform(-3, 3, size=(m, 3))]).reshape(m, 9)
        if m:
            gt[0, :3] = pred[rows[0], :3]  # a zero difference: sign 0 on both paths
        _assert_same_bytes(lambda p: box_regression_loss(p, rows, gt),
                           lambda p: _box_ref(p, rows, gt), [pred], rng)
    empty = box_regression_loss(Tensor(pred), [], np.zeros((0, 9)))
    assert empty.item() == 0.0 and empty._parents == ()


def test_fused_spatial_relevance_loss_matches_composition_bytes():
    rng = make_rng(419)
    for shape in ((30,), (30, 1), (5, 4)):
        logits = _extreme_logits(rng, shape)
        labels = (rng.random(logits.size) > 0.6).astype(float)
        _assert_same_bytes(lambda x: spatial_relevance_loss(x, labels),
                           lambda x: _spatial_ref(x, labels), [logits], rng)


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0), (0.0, 2.5, 0.01)])
def test_fused_weighted_sum_matches_products_and_adds(weights):
    # unit weights are the training total's plain adds, the others total_loss's products
    values = (-0.0, 0.1, 0.2, 0.3)[:len(weights)]

    def reference(*terms):
        if set(weights) != {1.0}:
            terms = [mul(t, w) for t, w in zip(terms, weights)]
        total = terms[0]
        for t in terms[1:]:
            total = add(total, t)
        return total

    terms = [Tensor([v]) for v in values]
    assert weighted_sum(terms, weights)._parents == tuple(terms)
    _assert_same_bytes(lambda *t: weighted_sum(t, weights), reference,
                       [np.array([v]) for v in values], make_rng(421))


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_box=-0.1)
    # a weight is a float in weighted_sum, so an infinite one is refused here, by name
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^lambda_spatial must be finite and nonnegative"):
            LossWeights(lambda_spatial=value)


@dataclass
class FakeOutput:
    boxes: np.ndarray
    logits: Tensor
    box_pred: Tensor
    relevance: Tensor | None


def make_fake_output(rng, task="detection", k=4, num_classes=3, n_vox=6):
    """A decoder output of ``task``; both tasks' logits are drawn, in the same order."""
    centers = rng.normal(size=(k, 3))
    logext = rng.uniform(-0.3, 0.3, size=(k, 3))
    raw_s = rng.normal(size=(k, 3))
    raw_c = rng.normal(size=(k, 3))
    norm = np.sqrt(raw_s**2 + raw_c**2 + 1e-12)
    sin_n, cos_n = raw_s / norm, raw_c / norm
    boxes = np.hstack([centers, np.exp(logext), wrap_angle(np.arctan2(sin_n, cos_n))])
    det_logits = rng.normal(size=(k, num_classes))
    grd_logits = rng.normal(size=(k, 1))
    return FakeOutput(
        boxes=boxes,
        logits=Tensor(det_logits if task == "detection" else grd_logits),
        box_pred=Tensor(np.hstack([centers, logext, sin_n, cos_n])),
        relevance=Tensor(rng.normal(size=(n_vox,))),
    )


def test_matching_cost_prefers_better_class_and_box():
    rng = make_rng(341)
    out = make_fake_output(rng)
    gt = SetTargets(out.boxes[[2]], [1])
    cost = matching_cost(out, gt, 1.0, LossWeights())
    assert cost.shape == (4, 1)
    # prediction 2 has a zero box term against its own box
    assert np.argmin(cost[:, 0]) == 2


def test_matching_cost_stable_at_extreme_logits():
    out = make_fake_output(make_rng(343))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out.logits = Tensor(np.array([[-1000.0], [1000.0], [0.0], [-1.0]]))
        grd = matching_cost(out, SetTargets(out.boxes[[0]], [0]), 1.0,
                            LossWeights(lambda_box=0.0))
        out.logits = Tensor(np.full((4, 3), -1000.0))
        det = matching_cost(out, SetTargets(out.boxes[[0]], [1]), 1.0,
                            LossWeights(lambda_box=0.0))
    assert grd[:, 0].tolist() == pytest.approx([0.0, -1.0, -0.5, -1.0 / (1.0 + math.e)],
                                               abs=1e-15)
    assert np.all(det == 0.0)


def test_matching_cost_equals_box_loss_loop_bytes():
    rng = make_rng(389)
    weights = LossWeights(lambda_cls=0.7, lambda_box=1.3, lambda_ground=0.9)

    def angles():
        # around +-pi and beyond it, wrapped by Box9DoF, or anywhere
        near = np.pi + rng.choice([-1.0, 1.0], size=3) * rng.uniform(0.0, 1e-3, size=3)
        return rng.choice([-1.0, 1.0], size=3) * near if rng.random() < 0.5 \
            else rng.uniform(-7.0, 7.0, size=3)

    def boxes(n):
        rows = [np.concatenate([rng.normal(size=3), rng.uniform(0.1, 2.0, size=3),
                                wrap_angle(angles())]) for _ in range(n)]
        return np.array(rows)

    def as_boxes(rows):
        objs = [Box9DoF(*row) for row in rows]
        assert np.array_equal([b.as_params() for b in objs], rows)  # wrapping is idempotent
        return objs

    for trial in range(10):
        task = "grounding" if trial % 2 else "detection"
        out = make_fake_output(rng, task, k=8)
        out.boxes = boxes(8)
        if task == "grounding":
            gt_boxes, classes = boxes(1), [0]
            cls_weight = weights.lambda_ground
        else:
            gt_boxes, classes = boxes(6), rng.integers(0, 3, size=6).tolist()
            cls_weight = weights.lambda_cls
        box_cost = np.array([[box_loss(p, t) for t in as_boxes(gt_boxes)]
                             for p in as_boxes(out.boxes)])
        want = (cls_weight * -_sigmoid(out.logits.data)[:, classes]
                + weights.lambda_box * box_cost)
        got = matching_cost(out, SetTargets(gt_boxes, classes), cls_weight, weights)
        assert got.shape == (8, len(gt_boxes))
        assert got.tobytes() == want.tobytes()


def test_detection_total_loss_breakdown_consistent():
    rng = make_rng(347)
    out = make_fake_output(rng)
    gt = SetTargets(out.boxes[[0, 3]], [0, 2])
    weights = LossWeights(lambda_cls=1.0, lambda_box=1.0)
    total, breakdown = total_loss(out, gt, weights.lambda_cls, weights)
    assert breakdown.spatial == 0.0
    want = weights.lambda_cls * breakdown.cls + weights.lambda_box * breakdown.box
    assert abs(breakdown.total - want) < 1e-12
    assert total.item() == pytest.approx(breakdown.total, abs=1e-12)


def test_grounding_total_loss_breakdown_consistent():
    rng = make_rng(349)
    out = make_fake_output(rng, "grounding")
    labels = (rng.random(6) > 0.5).astype(float)
    gt = SetTargets(out.boxes[[1]], [0], labels)
    weights = LossWeights(lambda_spatial=0.01)
    total, breakdown = total_loss(out, gt, weights.lambda_ground, weights)
    want = (weights.lambda_ground * breakdown.cls + weights.lambda_box * breakdown.box
            + weights.lambda_spatial * breakdown.spatial)
    assert abs(breakdown.total - want) < 1e-12
    assert total.item() == pytest.approx(breakdown.total, abs=1e-12)
    # without a relevance head the spatial component drops out
    out.relevance = None
    _, b2 = total_loss(out, gt, weights.lambda_ground, weights)
    assert b2.spatial == 0.0


def test_grounding_matches_closest_query():
    rng = make_rng(353)
    out = make_fake_output(rng, "grounding")
    gt = SetTargets(out.boxes[[3]], [0])
    cost = matching_cost(out, gt, 1.0, LossWeights())
    assert cost.shape == (4, 1)
    assignment = hungarian(cost)
    # box 3 matches itself unless its grounding score is badly low
    assert assignment.pairs[0][1] == 0


def test_detection_loss_empty_gt():
    rng = make_rng(359)
    out = make_fake_output(rng)
    gt = SetTargets(np.zeros((0, 9)), [])
    total, breakdown = total_loss(out, gt, 1.0, LossWeights())
    assert breakdown.box == 0.0
    assert breakdown.cls > 0.0
    assert np.isfinite(total.item())


def test_total_loss_golden():
    # bit-exact values recorded while detection and grounding still had separate
    # loss functions; a change to the loss arithmetic or its op order breaks them
    other = make_fake_output(make_rng(348))
    labels = (make_rng(349).random(6) > 0.5).astype(float)
    weights = LossWeights(lambda_spatial=0.05)
    want = {
        "detection": ("0x1.98a2521b0e400p-3", "0x1.c75795c39f931p+2", "0x0.0p+0",
                      "0x1.d41ca85478051p+2"),
        "grounding": ("0x1.7eddd239620b1p-1", "0x1.04e75809e064ep+3", "0x1.76c65fc505c8dp-1",
                      "0x1.1e010713adbd6p+3"),
    }
    for task, gt, cls_weight in (
            ("detection", SetTargets(other.boxes[:3], [0, 2, 1]), weights.lambda_cls),
            ("grounding", SetTargets(other.boxes[[1]], [0], labels), weights.lambda_ground)):
        total, b = total_loss(make_fake_output(make_rng(347), task), gt, cls_weight, weights)
        got = tuple(v.hex() for v in (b.cls, b.box, b.spatial, b.total))
        assert got == want[task], task
        assert total.item().hex() == want[task][3]
