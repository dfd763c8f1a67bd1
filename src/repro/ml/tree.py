"""CART decision-tree classifier (Gini impurity, exact greedy splits).

Backs both the paper's DT baseline and the Random Forest (prior work
Sedaghati et al. [30] used trees/forests for format selection).

Split search is exact greedy over a presorted block (DESIGN §17): one
stable argsort of every column per fit, a stable filter of it for every
child.  :func:`grow` grows a whole batch of trees at once: every tree of
a forest, or the one tree of a DT.  Each step takes the next pending node
of every unfinished tree in depth-first preorder (all of them when no
features are drawn) and scores all of those nodes' (feature × cut) gains
in one vectorized pass.  The trees come out as flat node arrays
(:class:`FlatTree`), so prediction descends all rows of all trees level
by level.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, encode_labels


@dataclass
class _Node:
    """One tree node; leaves carry class-count distributions."""

    counts: np.ndarray  # per-class sample counts reaching this node
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def presort(XT: np.ndarray) -> np.ndarray:
    """Row indices sorted stably along each feature of a (features, rows)
    matrix, or of a (features, trees, rows) stack of them: the block
    every node of one fit filters."""
    return np.argsort(XT, axis=-1, kind="stable")


def split_block(
    rows: np.ndarray, order: np.ndarray, goes_left: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(rows, block) of the left and of the right child of a node.

    ``rows`` are the node's rows in their original order, ``order`` its
    presorted block and ``goes_left`` is indexed by row.  A stable filter
    keeps the rows in their original order, and it keeps each block row
    a stable sort: values stay ascending and tied rows keep their order,
    so each child's block equals a fresh stable argsort of its own rows.
    """
    in_left = goes_left[rows]
    mask = goes_left[order]
    n_features = order.shape[0]
    return (
        (rows[in_left], order[mask].reshape(n_features, -1)),
        (rows[~in_left], order[~mask].reshape(n_features, -1)),
    )


def best_cut(gains: np.ndarray) -> tuple[int, int] | None:
    """(feature row, cut) of the best positive gain, else ``None``.

    ``gains`` holds one row per candidate feature and one column per cut,
    with ``-inf`` where a cut is not allowed.  The first maximum in row
    order is the first maximum within the first row that holds it: the
    tie-break of a loop over features that keeps a strictly better
    running best, starting at 0.
    """
    if not gains.size:  # no candidate feature
        return None
    i = int(gains.argmax())
    if not gains.flat[i] > 0.0:
        return None
    return divmod(i, gains.shape[1])


class FlatTree:
    """Fitted trees as flat node arrays, every tree's nodes stacked.

    Tree ``t`` holds nodes ``bounds[t]`` (its root) up to ``bounds[t + 1]``
    and is ``depths[t]`` levels deep; ``children`` indexes the stacked
    arrays.  A leaf's children point back at the leaf, so ``depth`` (the
    deepest tree's) rounds of "compare, step to a child" park every row on
    its leaf in every tree.  A round only compares each row's own feature
    value with a threshold, so the leaf a row reaches does not depend on
    the other rows of the batch.
    """

    __slots__ = ("feature", "threshold", "children", "bounds", "depths", "depth")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        children: np.ndarray,
        bounds: np.ndarray,
        depths: np.ndarray,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.children = children  # per node: [child if x > t, if x <= t]
        self.bounds = bounds
        self.depths = depths
        self.depth = max(depths.tolist())

    def tree(self, t: int) -> "FlatTree":
        """Tree ``t`` alone, sharing these arrays."""
        return FlatTree(
            self.feature,
            self.threshold,
            self.children,
            self.bounds[t:t + 2],
            self.depths[t:t + 1],
        )

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """(trees × rows) index of the leaf each row of ``X`` reaches."""
        n_rows = X.shape[0]
        node = self.bounds[:-1].repeat(n_rows)
        rows = np.arange(node.shape[0]) % n_rows
        for _ in range(self.depth):
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = self.children[2 * node + goes_left]
        return node.reshape(self.depths.shape[0], n_rows)


def link(nodes: list, feature, threshold, children):
    """Wire linked ``nodes``, one per node of a flat tree with ids from 0,
    by its ``feature``, ``threshold`` and ``children`` (the
    :class:`FlatTree` layout); returns the root."""
    for i, node in enumerate(nodes):
        right, left = children[2 * i], children[2 * i + 1]
        if right != i:
            node.feature = int(feature[i])
            node.threshold = float(threshold[i])
            node.left, node.right = nodes[left], nodes[right]
    return nodes[0]


def n_candidate_features(max_features, n_features: int) -> int:
    """Candidate features drawn at each split.

    ``max_features`` is ``None`` (every feature), ``"sqrt"``, ``"log2"``
    or an int >= 1 (capped at ``n_features``); anything else raises.
    """
    mf = max_features
    if mf is None:
        return n_features
    if isinstance(mf, str) and mf == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if isinstance(mf, str) and mf == "log2":
        return max(1, int(np.log2(max(n_features, 1))))
    if isinstance(mf, (int, np.integer)) and not isinstance(mf, bool) and mf >= 1:
        return min(int(mf), max(n_features, 1))
    raise ValueError(
        "max_features must be None, 'sqrt', 'log2' or an int >= 1, "
        f"got {mf!r}"
    )


def grow(
    X: np.ndarray,
    samples: np.ndarray,
    encoded: np.ndarray,
    n_classes: int,
    seeds: list[int],
    n_candidates: int,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
) -> tuple[FlatTree, np.ndarray, np.ndarray]:
    """Grow one CART tree per row of ``samples``, all in one loop.

    Tree ``t`` fits rows ``samples[t]`` of ``X`` (its bootstrap sample,
    say) with labels ``encoded[t]`` in ``0..n_classes-1``, and keeps the
    classes that sample holds, exactly as encoding the sample would.  It
    draws its candidate features from ``np.random.default_rng(seeds[t])``.
    Trees holding the same number of classes grow together
    (:func:`_lockstep`), so every Gini sum reduces over the classes the
    tree holds.

    Returns the trees as one :class:`FlatTree` (in ``samples`` order,
    nodes of a tree in creation order, root first), every node's counts
    over all ``n_classes`` (zero for classes its tree does not hold) and
    the (trees × classes) mask of the classes each tree holds.
    """
    n_trees = samples.shape[0]
    tree_rows = np.arange(n_trees)[:, None]
    present = np.bincount(
        (tree_rows * n_classes + encoded).ravel(),
        minlength=n_trees * n_classes,
    ).reshape(n_trees, n_classes) > 0
    # Each tree's labels as indices into the classes it holds.
    codes = (np.cumsum(present, axis=1) - 1)[tree_rows, encoded]
    widths = present.sum(axis=1)
    nodes, splits = [], []
    for width in np.unique(widths).tolist():
        group = np.flatnonzero(widths == width)
        (t, local, depth, group_counts), split = _lockstep(
            X, samples[group], codes[group], width,
            [seeds[i] for i in group.tolist()], n_candidates, max_depth,
            min_samples_split, min_samples_leaf,
        )
        # Counts in the columns of the classes each node's tree holds.
        cols = np.nonzero(present[group])[1].reshape(-1, width)
        aligned = np.zeros((t.shape[0], n_classes))
        aligned[np.arange(t.shape[0])[:, None], cols[t]] = group_counts
        nodes.append((group[t], local, depth, aligned))
        splits.append((group[split[0]],) + split[1:])
    tree, local, depth, node_counts = map(np.concatenate, zip(*nodes))
    bounds = np.zeros(n_trees + 1, dtype=np.intp)
    np.cumsum(np.bincount(tree, minlength=n_trees), out=bounds[1:])
    counts = np.empty_like(node_counts)
    counts[bounds[tree] + local] = node_counts
    depths = np.zeros(n_trees, dtype=np.intp)
    np.maximum.at(depths, tree, depth)
    feature = np.zeros(counts.shape[0], dtype=np.intp)
    threshold = np.zeros(counts.shape[0])
    children = np.repeat(np.arange(counts.shape[0]), 2)  # a leaf: itself
    tree, local, split_feature, split_threshold, left = map(
        np.concatenate, zip(*splits)
    )
    at = bounds[tree] + local
    feature[at] = split_feature
    threshold[at] = split_threshold
    children[2 * at] = bounds[tree] + left + 1
    children[2 * at + 1] = bounds[tree] + left
    return FlatTree(feature, threshold, children, bounds, depths), counts, present


#: Most rows of popped nodes one vectorized pass scores; a pass holds
#: about a kilobyte per row.
_MAX_ROWS = 1 << 14

#: Nodes whose candidate features a tree draws in its first call; each
#: later call of that tree draws for twice as many nodes as its last.
_DRAW_CHUNK = 8


def _floyd(d: int, k: int) -> bool:
    """Whether ``Generator.choice(d, k, replace=False)`` takes Floyd's
    method; otherwise it shuffles the tail of ``arange(d)``."""
    return d <= 10000 or k <= d // 50


def choice_plan(d: int, k: int) -> np.ndarray:
    """Inclusive upper bounds of the draws ``choice(d, k, replace=False)``
    makes, in order; every draw's lower bound is 0.

    Floyd's method draws one value in ``[0, j]`` for each ``j`` of
    ``d-k .. d-1``, then shuffles the ``k`` values, drawing in ``[0, i]``
    for ``i`` from ``k-1`` down to 1.  The tail shuffle draws in
    ``[0, i]`` for ``i`` from ``d-1`` down to ``max(d-k, 1)``.  The
    bounds do not depend on the values drawn.
    """
    if _floyd(d, k):
        return np.concatenate((np.arange(d - k, d), np.arange(k - 1, 0, -1)))
    return np.arange(d - 1, max(d - k, 1) - 1, -1)


def replay_choice(draws: np.ndarray, d: int, k: int) -> np.ndarray:
    """The rows ``choice(d, k, replace=False)`` returns, one per row of
    ``draws``, which holds one call's draws in the order of
    :func:`choice_plan`.

    ``rng.integers(0, np.tile(choice_plan(d, k), m), endpoint=True)``
    makes the draws of ``m`` successive calls: ``choice`` takes each of
    its bounded draws with the routine ``integers`` runs per element of
    an array bound, from the same 32-bit stream, and a bound of 0 reads
    nothing in either.  The replay applies ``choice``'s own algorithm to
    all rows at once.
    """
    rows = np.arange(draws.shape[0])

    def swap(out, i, s):  # out[i] <-> out[s] in every row, as choice does
        held = out[rows, s]
        out[rows, s] = out[:, i]
        out[:, i] = held

    if not _floyd(d, k):
        out = np.tile(np.arange(d, dtype=np.int64), (rows.shape[0], 1))
        for i, s in zip(range(d - 1, max(d - k, 1) - 1, -1), draws.T):
            swap(out, i, s)
        return out[:, d - k:]
    out = np.empty((rows.shape[0], k), dtype=np.int64)
    for p, v in enumerate(draws[:, :k].T):
        # A value already taken gives way to j = d - k + p itself, which
        # no earlier draw (each at most j - 1) can have taken.
        taken = (out[:, :p] == v[:, None]).any(axis=1)
        out[:, p] = np.where(taken, d - k + p, v)
    for i, s in zip(range(k - 1, 0, -1), draws[:, k:].T):
        swap(out, i, s)
    return out


class _FeatureDraws:
    """Each tree's ``rngs[t].choice(d, k, replace=False)`` calls, replayed
    in bulk (:func:`replay_choice`).

    A tree that runs out of rows draws for its next ``_DRAW_CHUNK`` nodes
    in one call, and for twice as many as its last call each time after.
    Its rows come out in the order its ``choice`` calls would have
    returned them; rows a tree never takes only advance its own
    generator.
    """

    def __init__(self, seeds: list[int], d: int, k: int) -> None:
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.d, self.k = d, k
        self.plan = choice_plan(d, k)
        self.size = [_DRAW_CHUNK] * len(seeds)
        self.rows: list[list[np.ndarray]] = [[] for _ in seeds]  # next last

    def take(self, trees: list[int]) -> list[np.ndarray]:
        """The next candidate features of each of ``trees``."""
        short = [t for t in trees if not self.rows[t]]
        if short:
            sizes = [self.size[t] for t in short]
            width = self.plan.shape[0]
            bounds = np.tile(self.plan, max(sizes))
            draws = np.concatenate([
                self.rngs[t].integers(0, bounds[:c * width], endpoint=True)
                for t, c in zip(short, sizes)
            ]).reshape(sum(sizes), width)
            feats = replay_choice(draws, self.d, self.k)
            for t, rows in zip(short, np.split(feats, np.cumsum(sizes[:-1]))):
                self.rows[t] = list(rows[::-1])
                self.size[t] *= 2
        return [self.rows[t].pop() for t in trees]


def _lockstep(
    X, samples, codes, n_classes, seeds, n_candidates, max_depth,
    min_samples_split, min_samples_leaf,
):
    """Grow trees whose samples hold ``n_classes`` classes each.

    Each step pops the next pending node of every tree with one pending,
    from a per-tree stack that pops a left child before its right
    sibling: every tree takes its nodes, and its ``rng.choice`` feature
    draws, in the depth-first preorder a recursive build would.  Trees
    that draw no features (``n_candidates`` covers them all) give up all
    their pending nodes at each step instead.  The popped nodes are
    scored together (:func:`_best_splits`), in runs of at most
    ``_MAX_ROWS`` rows.  A child is pushed only if it can split: leaves
    are final on creation.

    Returns per-node arrays ``(tree, id, depth, counts)`` (a node's id
    counts its tree's nodes in creation order) and per-split arrays
    ``(tree, id, feature, threshold, left child id)``; the right child's
    id is the left's plus one.
    """
    n_trees, n = samples.shape
    d = X.shape[1]
    k = min(n_candidates, d)
    limit = sys.getrecursionlimit()
    # Tree t's rows are columns t*n .. t*n + n - 1 of XT, in sample order.
    XT = np.take(np.ascontiguousarray(X.T), samples.ravel(), axis=1)
    y = codes.ravel()
    onehot = np.eye(n_classes)[y]
    order = presort(XT.reshape(d, n_trees, n))
    order += np.arange(0, n_trees * n, n)[:, None]
    side = np.zeros(n_trees * n, dtype=bool)
    counts = np.bincount(
        (np.arange(n_trees)[:, None] * n_classes + codes).ravel(),
        minlength=n_trees * n_classes,
    ).reshape(n_trees, n_classes).astype(float)
    zeros = np.zeros(n_trees, dtype=np.intp)
    nodes = [(np.arange(n_trees), zeros, zeros, counts)]
    splits = [(zeros[:0],) * 5]
    next_id = np.ones(n_trees, dtype=np.intp)
    draws = _FeatureDraws(seeds, d, k)
    roots = _can_split(
        counts, n, 0, max_depth, min_samples_split
    ) & (d > 0)
    stacks = [[(order[:, t], counts[t], 0, 0)] if ok else []
              for t, ok in enumerate(roots.tolist())]
    live = list(range(n_trees))
    popped = []  # (tree, node, candidate features), not yet scored
    while True:
        if not popped:
            live = [t for t in live if stacks[t]]
            if not live:
                break
            if k < d:  # one node per tree, whose draw comes next in preorder
                owner = live
                feats = draws.take(live)
            else:  # no draws, so the order of a tree's nodes changes nothing
                owner = [t for t in live for _ in stacks[t]]
                feats = [np.arange(d)] * len(owner)
            popped = [(t, stacks[t].pop(), f) for t, f in zip(owner, feats)]
        # Score the popped nodes in runs of at most _MAX_ROWS rows (or
        # one node), which bounds the memory a pass takes.
        sizes = np.array([node[0].shape[1] for _, node, _ in popped])
        P = max(1, int(np.searchsorted(np.cumsum(sizes), _MAX_ROWS, "right")))
        owner, batch, feats = zip(*popped[:P])
        del popped[:P]
        blocks, node_counts, depth, ids = zip(*batch)
        feats = np.array(feats)
        sizes = sizes[:P]
        block = np.concatenate(blocks, axis=1)
        seg = np.repeat(np.arange(P), sizes)  # each column's node
        split, feature, threshold = _best_splits(
            XT, onehot, block, sizes, seg, np.array(node_counts), feats,
            min_samples_leaf,
        )
        if not split.size:
            continue
        # Children hold the rows the threshold sends each way, which is
        # not the cut when the midpoint rounds onto the upper value.
        # Every row of a node that does not split goes left, unused.
        rows = block[0]
        goes_left = XT[feature[seg], rows] <= threshold[seg]
        side[rows] = goes_left
        mask = side[block]
        lefts = block[mask].reshape(d, -1)
        rights = block[~mask].reshape(d, -1)
        n_left = np.bincount(seg[goes_left], minlength=P)
        kid_sizes = np.column_stack((n_left, sizes - n_left))
        begin = (np.cumsum(kid_sizes, axis=0) - kid_sizes)[split].tolist()
        kid_sizes = kid_sizes[split]
        child_counts = np.bincount(
            (2 * seg + ~goes_left) * n_classes + y[rows],
            minlength=2 * P * n_classes,
        ).reshape(-1, 2, n_classes)[split].astype(float)
        child_depth = np.array(depth)[split] + 1
        if child_depth.max() >= limit:
            raise RecursionError(
                f"tree depth reached the recursion limit ({limit})"
            )
        # Two ids per split, counted on from its tree's count; ``t`` is
        # sorted, and a tree may split several nodes in a step.
        t = np.array(owner)[split]
        left_id = next_id[t] + 2 * (np.arange(t.shape[0]) - np.searchsorted(t, t))
        np.add.at(next_id, t, 2)
        splits.append((t, np.array(ids)[split], feature[split],
                       threshold[split], left_id))
        nodes.append((
            np.repeat(t, 2), (left_id[:, None] + (0, 1)).ravel(),
            np.repeat(child_depth, 2), child_counts.reshape(-1, n_classes),
        ))
        can = _can_split(child_counts, kid_sizes, child_depth[:, None],
                         max_depth, min_samples_split).tolist()
        kid_sizes = kid_sizes.tolist()
        # A node's children are its slices of lefts and rights.  The right
        # one is pushed first, so the left one pops first.
        for i, (p, cd, lid) in enumerate(zip(
            split.tolist(), child_depth.tolist(), left_id.tolist()
        )):
            for j, kids in ((1, rights), (0, lefts)):
                if can[i][j]:
                    b = begin[i][j]
                    stacks[owner[p]].append((
                        kids[:, b:b + kid_sizes[i][j]], child_counts[i, j],
                        cd, lid + j,
                    ))
    return (
        tuple(np.concatenate(a) for a in zip(*nodes)),
        tuple(np.concatenate(a) for a in zip(*splits)),
    )


def _best_splits(XT, onehot, block, sizes, seg, counts, feats, min_samples_leaf):
    """Each node's best Gini cut, scored over its own rows only.

    ``block`` holds the nodes' presorted blocks side by side, node ``p``
    in the ``sizes[p]`` columns where ``seg`` is ``p``; ``counts`` are
    the nodes' class counts and ``feats`` their candidate features in
    draw order, which sets the tie-break between equally good features.
    Cut ``c`` of a node puts its first ``c + 1`` sorted rows on the left.
    Every term is computed from the same operands as a per-node search
    (DESIGN §17), so every gain is bit for bit the same.

    Returns the nodes that split (best gain positive) and every node's
    feature and threshold: ``(0, inf)`` for a node that does not split.
    """
    M = block.shape[1]
    starts = np.cumsum(sizes) - sizes
    F = feats.T[:, seg]
    cand = block[F, np.arange(M)]  # (candidates, M): presorted rows
    values = XT[F, cand]
    # Class counts left of each cut, class axis last: the running sum
    # restarts at each node's first row, so it is the node's own.
    left = onehot[cand]
    left[:, starts[1:]] -= counts[:-1]
    np.cumsum(left, axis=1, out=left)
    nl = np.arange(1.0, M + 1) - starts[seg]
    n = sizes[seg].astype(float)
    nr = n - nl  # 0 at each node's last row: no cut there
    p = counts / counts.sum(axis=1, keepdims=True)
    parent_gini = 1.0 - (p * p).sum(axis=1)
    right = counts[seg] - left
    right /= np.maximum(nr, 1.0)[:, None]
    left /= nl[:, None]
    gini_l = 1.0 - np.square(left, out=left).sum(axis=2)
    gini_r = 1.0 - np.square(right, out=right).sum(axis=2)
    gains = parent_gini[seg] - (nl * gini_l + nr * gini_r) / n
    # Only cuts between distinct values, with at least min_samples_leaf
    # rows (and at least one) on each side.
    gains[:, np.minimum(nl, nr) < max(min_samples_leaf, 1)] = -np.inf
    gains[:, :-1][values[:, 1:] == values[:, :-1]] = -np.inf
    # Each node's first maximum in (feature, cut) order, as best_cut
    # picks it: the smallest key f * M + column among the maxima.
    best = np.maximum.reduceat(gains.max(axis=0), starts)
    key = np.where(
        gains == best[seg],
        np.arange(0, gains.size, M).reshape(-1, 1) + np.arange(M),
        gains.size,
    )
    f, col = np.divmod(np.minimum.reduceat(key.min(axis=0), starts), M)
    split = np.flatnonzero(best > 0.0)
    f, col = f[split], col[split]
    feature = np.zeros(sizes.shape[0], dtype=np.intp)
    threshold = np.full(sizes.shape[0], np.inf)
    feature[split] = feats[split, f]
    threshold[split] = 0.5 * (values[f, col] + values[f, col + 1])
    return split, feature, threshold


def _can_split(counts, size, depth, max_depth, min_samples_split):
    """Whether nodes with these class counts, sizes and depths may split."""
    ok = (size >= min_samples_split) & (np.count_nonzero(counts, axis=-1) > 1)
    if max_depth is not None:
        ok &= depth < max_depth
    return ok


def leaf_proba(counts: np.ndarray) -> np.ndarray:
    """Each node's class distribution.

    A threshold that rounds onto the upper of two adjacent values sends
    every row left, so a node can be empty: its distribution is its
    (zero) counts.
    """
    totals = counts.sum(axis=1)[:, None]
    return np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)


class DecisionTreeClassifier(BaseEstimator):
    """CART classifier.

    Parameters follow the scikit-learn names the paper's setup mentions
    (``max_depth``, ``min_samples_split``, ``max_features``).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    def _n_candidate_features(self, n_features: int) -> int:
        return n_candidate_features(self.max_features, n_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        k = self._n_candidate_features(X.shape[1])
        classes, encoded = encode_labels(y)
        flat, counts, _ = grow(
            X, np.arange(X.shape[0])[None], encoded[None], classes.shape[0],
            [self.seed], k, self.max_depth, self.min_samples_split,
            self.min_samples_leaf,
        )
        return self._set_fitted(
            flat, counts, leaf_proba(counts), classes,
            np.arange(classes.shape[0]), X.shape[1], k,
        )

    def _set_fitted(
        self, flat, counts, proba, classes, cols, n_features, k
    ) -> "DecisionTreeClassifier":
        """Adopt one fitted tree: ``flat`` holds it alone, its nodes'
        ``counts``/``proba`` (which may be shared with other trees) hold
        its ``classes`` in columns ``cols``."""
        self.__dict__.pop("root_", None)  # built from the previous fit
        self._flat = flat
        self._counts = counts
        self._proba = proba
        self._cols = cols
        self.classes_ = classes
        self.n_features_ = n_features
        self._k = k
        return self

    @cached_property
    def root_(self) -> _Node:
        """The fitted tree as linked nodes, built on first use."""
        flat = self._flat
        start, stop = flat.bounds.tolist()
        counts = self._counts[start:stop][:, self._cols]
        return link(
            [_Node(counts=c) for c in counts],
            flat.feature[start:stop].tolist(),
            flat.threshold[start:stop].tolist(),
            (flat.children[2 * start:2 * stop] - start).tolist(),
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("_flat")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return self._proba[self._flat.leaves(X)[0][:, None], self._cols]

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def depth(self) -> int:
        """Realised depth of the fitted tree."""
        self._require_fitted("_flat")
        return self._flat.depth

    def n_leaves(self) -> int:
        self._require_fitted("_flat")
        nodes = np.arange(*self._flat.bounds.tolist())
        return int(np.count_nonzero(self._flat.children[2 * nodes] == nodes))
