"""BIRCH clustering (Zhang, Ramakrishnan & Livny [37]).

A CF-tree incrementally absorbs points into subclusters bounded by a
radius ``threshold``, splitting nodes that exceed the ``branching_factor``.
A global step then groups the leaf subcluster centroids into ``n_clusters``
groups with K-Means, as scikit-learn's implementation does.

BIRCH is the one incremental algorithm in the paper's portfolio, which is
why its conclusion singles out incremental clustering as the route to an
*online* format-selection system.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import NotFittedError, check_array
from repro.ml.cluster.kmeans import KMeans
from repro.ml.knn import pairwise_sq_dists
from repro.obs import TELEMETRY


class _CF:
    """Clustering feature: (count, linear sum, sum of squared norms)."""

    __slots__ = ("n", "ls", "ss", "child")

    def __init__(self, dim: int, child: "_Node | None" = None) -> None:
        self.n = 0
        self.ls = np.zeros(dim)
        self.ss = 0.0
        self.child = child

    def add_point(self, x: np.ndarray) -> None:
        self.n += 1
        self.ls += x
        self.ss += float(x @ x)

    def merge(self, other: "_CF") -> None:
        self.n += other.n
        self.ls += other.ls
        self.ss += other.ss

    @property
    def centroid(self) -> np.ndarray:
        return self.ls / self.n if self.n else self.ls

    def radius_with(self, x: np.ndarray) -> float:
        """RMS radius of this subcluster after absorbing ``x``."""
        n = self.n + 1
        ls = self.ls + x
        ss = self.ss + float(x @ x)
        centroid = ls / n
        r2 = ss / n - float(centroid @ centroid)
        return float(np.sqrt(max(r2, 0.0)))


class _Node:
    """CF-tree node holding up to ``branching_factor`` CF entries."""

    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.entries: list[_CF] = []
        self.is_leaf = is_leaf

    def closest_entry(self, x: np.ndarray) -> int:
        centroids = np.vstack([e.centroid for e in self.entries])
        d2 = pairwise_sq_dists(x[None, :], centroids).ravel()
        return int(np.argmin(d2))


class Birch:
    """CF-tree clustering with a K-Means global step.

    Parameters
    ----------
    n_clusters
        Target number of global clusters; ``None`` keeps the raw leaf
        subclusters as the final clustering.
    threshold
        Maximum RMS radius of a leaf subcluster.
    branching_factor
        Maximum CF entries per node before a split.
    """

    def __init__(
        self,
        n_clusters: int | None = 8,
        threshold: float = 0.25,
        branching_factor: int = 50,
        seed: int = 0,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if branching_factor < 2:
            raise ValueError("branching_factor must be >= 2")
        self.n_clusters = n_clusters
        self.threshold = threshold
        self.branching_factor = branching_factor
        self.seed = seed

    # -- CF-tree construction ---------------------------------------------

    def _insert(self, node: _Node, x: np.ndarray) -> _CF | None:
        """Insert ``x``; returns a new sibling CF if ``node`` split."""
        dim = x.shape[0]
        if not node.entries:
            cf = _CF(dim)
            cf.add_point(x)
            node.entries.append(cf)
            return None
        idx = node.closest_entry(x)
        entry = node.entries[idx]
        if node.is_leaf:
            if entry.radius_with(x) <= self.threshold:
                entry.add_point(x)
                return None
            cf = _CF(dim)
            cf.add_point(x)
            node.entries.append(cf)
        else:
            new_sibling = self._insert(entry.child, x)
            entry.add_point(x)
            if new_sibling is not None:
                node.entries.append(new_sibling)
                # The parent entry no longer covers the moved children:
                # rebuild its CF from the child node.
                self._refresh_entry(entry)
        if len(node.entries) > self.branching_factor:
            return self._split(node)
        return None

    def _refresh_entry(self, entry: _CF) -> None:
        child = entry.child
        entry.n = sum(e.n for e in child.entries)
        entry.ls = np.sum([e.ls for e in child.entries], axis=0)
        entry.ss = float(sum(e.ss for e in child.entries))

    def _split(self, node: _Node) -> _CF:
        """Split ``node`` in place; returns the CF wrapping the new sibling."""
        centroids = np.vstack([e.centroid for e in node.entries])
        d2 = pairwise_sq_dists(centroids, centroids)
        i, j = np.unravel_index(np.argmax(d2), d2.shape)
        keep = _Node(node.is_leaf)
        move = _Node(node.is_leaf)
        for k, entry in enumerate(node.entries):
            target = keep if d2[k, i] <= d2[k, j] else move
            target.entries.append(entry)
        if not keep.entries or not move.entries:
            # Degenerate (all centroids identical): split arbitrarily.
            half = len(node.entries) // 2
            keep.entries = node.entries[:half]
            move.entries = node.entries[half:]
        node.entries = keep.entries
        dim = node.entries[0].ls.shape[0]
        sibling_cf = _CF(dim, child=move)
        self._refresh_entry(sibling_cf)
        return sibling_cf

    def fit(self, X: np.ndarray) -> "Birch":
        X = check_array(X)
        dim = X.shape[1]
        root = _Node(is_leaf=True)
        with TELEMETRY.span("birch.fit", n_samples=X.shape[0]):
            for x in X:
                sibling = self._insert(root, x)
                if sibling is not None:
                    # Grow a new root one level up.
                    old_cf = _CF(dim, child=root)
                    if root.is_leaf:
                        # Wrap the old root's entries directly.
                        old_cf.n = sum(e.n for e in root.entries)
                        old_cf.ls = np.sum(
                            [e.ls for e in root.entries], axis=0
                        )
                        old_cf.ss = float(sum(e.ss for e in root.entries))
                    else:
                        self._refresh_entry(old_cf)
                    new_root = _Node(is_leaf=False)
                    new_root.entries = [old_cf, sibling]
                    root = new_root
            self._root = root
            leaves = self._collect_leaf_entries(root)
            self.subcluster_centers_ = np.vstack(
                [cf.centroid for cf in leaves]
            )
            self.subcluster_counts_ = np.array([cf.n for cf in leaves])
            self._global_step()
            self.labels_ = self.predict(X)
        # Birch converges in one pass; its convergence signal is the tree
        # size the pass produced.
        TELEMETRY.gauge_set("birch.subclusters", len(leaves))
        return self

    def _collect_leaf_entries(self, node: _Node) -> list[_CF]:
        if node.is_leaf:
            return list(node.entries)
        out: list[_CF] = []
        for entry in node.entries:
            out.extend(self._collect_leaf_entries(entry.child))
        return out

    def _global_step(self) -> None:
        n_sub = self.subcluster_centers_.shape[0]
        if self.n_clusters is None or self.n_clusters >= n_sub:
            self.subcluster_labels_ = np.arange(n_sub)
            self.n_clusters_ = n_sub
            return
        km = KMeans(n_clusters=self.n_clusters, seed=self.seed)
        km.fit(self.subcluster_centers_)
        self.subcluster_labels_ = km.labels_
        self.n_clusters_ = self.n_clusters

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "subcluster_centers_"):
            raise NotFittedError("Birch must be fitted first")
        X = check_array(X)
        nearest = np.argmin(
            pairwise_sq_dists(X, self.subcluster_centers_), axis=1
        )
        return self.subcluster_labels_[nearest]

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).labels_
