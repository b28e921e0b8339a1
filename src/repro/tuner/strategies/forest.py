"""A pure-python regression forest for kernel performance prediction.

Falch & Elster style surrogate, kept dependency-free: bagged regression
trees with random feature subsets and variance-reduction splits.  The
per-tree spread doubles as the uncertainty estimate that drives the
expected-improvement acquisition in :mod:`.surrogate`.

Training sets are small (hundreds of measured configurations), so the
implementation favours clarity over asymptotics: splits scan candidate
thresholds at feature-value midpoints.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["RegressionForest"]

_MIN_LEAF = 2
_MAX_THRESHOLDS = 16


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature: Optional[int] = None
        self.threshold = 0.0
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.value = 0.0


def _total(xs: Iterable[float]) -> float:
    """Left-to-right float sum: builtin ``sum`` of floats is compensated
    from Python 3.12 on, so its bits depend on the interpreter."""
    t = 0.0
    for x in xs:
        t += x
    return t


def _variance(ys: Sequence[float]) -> float:
    n = len(ys)
    if n < 2:
        return 0.0
    mean = _total(ys) / n
    return _total((y - mean) ** 2 for y in ys) / n


class _Tree:
    def __init__(self, rng: random.Random, max_depth: int, n_features: int):
        self.rng = rng
        self.max_depth = max_depth
        # sqrt-subset of features per split (classic random-forest rule).
        self.mtry = max(1, int(math.sqrt(n_features)))
        self.root = _Node()
        #: feature index -> accumulated variance reduction (importance).
        self.gains: Dict[int, float] = {}

    def fit(self, X: List[Sequence[float]], y: List[float]) -> None:
        self._split(self.root, list(range(len(X))), X, y, depth=0)

    def _split(self, node: _Node, rows: List[int], X, y, depth: int) -> None:
        ys = [y[i] for i in rows]
        node.value = _total(ys) / len(ys)
        if depth >= self.max_depth or len(rows) < 2 * _MIN_LEAF:
            return
        parent_var = _variance(ys)
        if parent_var <= 0.0:
            return
        features = self.rng.sample(range(len(X[0])), k=self.mtry)
        best: Optional[Tuple[float, int, float, List[int], List[int]]] = None
        for f in features:
            values = sorted({X[i][f] for i in rows})
            if len(values) < 2:
                continue
            if len(values) > _MAX_THRESHOLDS + 1:
                step = len(values) / (_MAX_THRESHOLDS + 1)
                values = [values[int(step * (k + 1))] for k in range(_MAX_THRESHOLDS)]
            thresholds = [
                (a + b) / 2.0 for a, b in zip(values, values[1:])
            ]
            for t in thresholds:
                left = [i for i in rows if X[i][f] <= t]
                right = [i for i in rows if X[i][f] > t]
                if len(left) < _MIN_LEAF or len(right) < _MIN_LEAF:
                    continue
                child_var = (
                    len(left) * _variance([y[i] for i in left])
                    + len(right) * _variance([y[i] for i in right])
                ) / len(rows)
                gain = parent_var - child_var
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, f, t, left, right)
        if best is None:
            return
        gain, f, t, left, right = best
        self.gains[f] = self.gains.get(f, 0.0) + gain * len(rows)
        node.feature, node.threshold = f, t
        node.left, node.right = _Node(), _Node()
        self._split(node.left, left, X, y, depth + 1)
        self._split(node.right, right, X, y, depth + 1)

    def predict(self, x: Sequence[float]) -> float:
        node = self.root
        while node.feature is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value


class RegressionForest:
    """Bagged regression trees with per-tree spread as uncertainty."""

    def __init__(
        self,
        n_trees: int = 24,
        max_depth: int = 9,
        rng: Optional[random.Random] = None,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.rng = rng or random.Random(0)
        self._trees: List[_Tree] = []
        self._n_features = 0

    @property
    def fitted(self) -> bool:
        return bool(self._trees)

    def fit(self, X: List[Sequence[float]], y: List[float]) -> None:
        if not X:
            self._trees = []
            return
        self._n_features = len(X[0])
        self._trees = []
        n = len(X)
        for _ in range(self.n_trees):
            rows = [self.rng.randrange(n) for _ in range(n)]  # bootstrap
            tree = _Tree(self.rng, self.max_depth, self._n_features)
            tree.fit([X[i] for i in rows], [y[i] for i in rows])
            self._trees.append(tree)

    def predict(self, x: Sequence[float]) -> Tuple[float, float]:
        """Mean prediction and across-tree standard deviation."""
        votes = [t.predict(x) for t in self._trees]
        mean = _total(votes) / len(votes)
        var = _total((v - mean) ** 2 for v in votes) / len(votes)
        return mean, math.sqrt(var)

    def feature_importances(self) -> List[float]:
        """Normalised variance-reduction importance per feature."""
        totals = [0.0] * self._n_features
        for tree in self._trees:
            for f, gain in tree.gains.items():
                totals[f] += gain
        norm = _total(totals)
        if norm <= 0:
            return totals
        return [t / norm for t in totals]
