"""The surrogate's regression forest fits the same bits on every Python.

Builtin ``sum`` of floats is compensated from CPython 3.12 on, so a forest
that added with it predicted differently on 3.11 and 3.12.  The forest
adds left to right; a fixed fit must give one digest on every
interpreter.  The data below is built without ``sum`` for the same
reason, and ``forest.py`` needs only ``math`` and ``random``, so this
file also runs on interpreters without numpy.
"""

import hashlib
import random

from repro.tuner.strategies.forest import RegressionForest

#: The digest of CPython 3.11.7, 3.12.1 and 3.13.0 alike.
FOREST_DIGEST = "a8f52a443e45b4d1"


def _dataset(rows=400, features=6, seed=7):
    rng = random.Random(seed)
    X, y = [], []
    for _ in range(rows):
        x = [float(int(rng.random() * 8)) for _ in range(features)]
        value = 0.0
        for i, xi in enumerate(x):
            value += (i + 1) * 0.37 * xi
        value += 0.11 * x[0] * x[1] + rng.random() / 3.0
        X.append(x)
        y.append(value)
    return X, y


def forest_digest() -> str:
    X, y = _dataset()
    forest = RegressionForest(n_trees=12, rng=random.Random(3))
    forest.fit(X, y)
    probes = [forest.predict(x) for x in X[:64]]
    payload = repr([probes, forest.feature_importances()])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_fit_is_pinned():
    assert forest_digest() == FOREST_DIGEST
