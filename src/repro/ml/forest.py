"""Random forest classifier (bagging + feature subsampling).

The paper's best model on the Sitasys data (Figure 10: up to 92% accuracy)
with the Table 3 configuration — 50 trees of maximum depth 30.  Probabilities
are the mean of per-tree leaf distributions, which is what the verification
service exposes to operators as the alarm confidence.

``fit`` builds one node table holding every tree (``repro.ml.tree._FlatTree``)
and prediction routes all rows through all trees in one level-synchronous
pass over it, summing leaf distributions in tree order so the mean is
bit-identical to averaging the trees one by one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import BaseClassifier, check_Xy
from repro.ml.tree import DecisionTreeClassifier, _FlatTree

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(BaseClassifier):
    """Bootstrap-aggregated decision trees with per-split feature sampling.

    Parameters
    ----------
    n_estimators:
        Number of trees (paper Table 3: 50).
    max_depth:
        Per-tree depth cap (paper Table 3: 30).
    max_features:
        Features considered per split; ``"sqrt"`` is the standard forest
        default.
    bootstrap:
        Draw each tree's training set with replacement (size n).  When
        False every tree sees the full data (only feature sampling varies).
    oob_score:
        When True (and bootstrap), estimate generalization accuracy from
        out-of-bag samples into ``oob_score_``.
    random_state:
        Seed controlling bootstraps and per-tree feature sampling.
    categorical_features:
        Column indexes treated as category codes; forwarded to every tree
        (see :class:`~repro.ml.tree.DecisionTreeClassifier`).
    """

    def __init__(self, n_estimators: int = 50, max_depth: int = 30,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | str | None = "sqrt", criterion: str = "gini",
                 bootstrap: bool = True, oob_score: bool = False,
                 random_state: int | None = None,
                 categorical_features: set[int] | frozenset[int] | None = None) -> None:
        if n_estimators < 1:
            raise ConfigurationError(f"n_estimators must be >= 1, got {n_estimators}")
        if oob_score and not bootstrap:
            raise ConfigurationError("oob_score requires bootstrap=True")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.categorical_features = (
            frozenset(categorical_features) if categorical_features else frozenset()
        )
        self.trees_: list[DecisionTreeClassifier] | None = None
        self.n_classes_: int | None = None
        self.n_features_: int | None = None
        self.oob_score_: float | None = None
        self.feature_importances_: np.ndarray | None = None
        self._table: _FlatTree | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit ``n_estimators`` trees on bootstrap resamples of ``(X, y)``."""
        X, y = check_Xy(X, y)
        n_samples = X.shape[0]
        self.n_classes_ = int(y.max()) + 1
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)

        self.trees_ = []
        oob_votes = np.zeros((n_samples, self.n_classes_), dtype=np.float64)
        oob_counts = np.zeros(n_samples, dtype=np.int64)
        importances = np.zeros(self.n_features_, dtype=np.float64)

        for i in range(self.n_estimators):
            if self.bootstrap:
                sample = rng.integers(0, n_samples, size=n_samples)
            else:
                sample = np.arange(n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                criterion=self.criterion,
                random_state=int(rng.integers(0, 2**31 - 1)),
                categorical_features=self.categorical_features,
            )
            tree.fit(X[sample], y[sample], n_classes=self.n_classes_)
            self.trees_.append(tree)
            if tree.feature_importances_ is not None:
                importances += tree.feature_importances_
            if self.oob_score:
                out_of_bag = np.setdiff1d(np.arange(n_samples), sample, assume_unique=False)
                if out_of_bag.size:
                    oob_votes[out_of_bag] += tree.predict_proba(X[out_of_bag])
                    oob_counts[out_of_bag] += 1

        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        if self.oob_score:
            covered = oob_counts > 0
            if covered.any():
                oob_pred = np.argmax(oob_votes[covered], axis=1)
                self.oob_score_ = float(np.mean(oob_pred == y[covered]))
            else:
                self.oob_score_ = 0.0
        self._table = _FlatTree([tree.root_ for tree in self.trees_], self.n_classes_)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of per-tree leaf distributions, from the forest's node table."""
        X = self._check_predict_input(X)
        assert self.trees_ is not None and self.n_classes_ is not None
        # Absent after unpickling, and from forests pickled before the
        # table existed.
        if getattr(self, "_table", None) is None:
            self._table = _FlatTree(
                [tree.root_ for tree in self.trees_], self.n_classes_
            )
        return self._table.predict_proba(X)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_table"] = None  # rebuilt on first prediction after unpickling
        return state
