"""CART decision tree classifier (numpy, vectorized split search).

The building block of :class:`repro.ml.forest.RandomForestClassifier`.
Implements binary splits on numeric features with Gini or entropy impurity,
depth / minimum-sample stopping rules, and per-leaf class probability
estimates.  Split search is vectorized: features are sorted once per node
and impurities for every candidate threshold are computed from cumulative
class counts, so training 50 trees of depth 30 on tens of thousands of rows
(the paper's Table 3 configuration) is feasible in pure numpy.

Prediction has one kernel, ``_FlatTree``: the nodes of one or more trees
in a single array table, routed level by level for all rows and trees at
once.  A tree routes through a one-tree table; the forest builds one table
for all of its trees, so a prediction costs about ten numpy calls per
depth level however many trees and however few rows there are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import BaseClassifier, check_Xy

__all__ = ["DecisionTreeClassifier", "TreeNode"]


@dataclass
class TreeNode:
    """One node of a fitted tree.

    Internal nodes carry ``feature`` plus either a numeric ``threshold``
    (``x <= threshold`` goes left) or, for categorical splits, a
    ``categories_left`` set (membership goes left); leaves carry only
    ``proba`` (class distribution of their training samples).
    """

    proba: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    categories_left: frozenset[float] | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    # Routing accelerators for categorical splits (built on node creation):
    # an integer lookup table when all codes are non-negative integers,
    # otherwise a sorted array for np.isin.
    _category_table: np.ndarray | None = None
    _category_array: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def prepare_categories(self) -> None:
        """Precompute fast-membership structures for ``categories_left``."""
        if self.categories_left is None:
            return
        codes = np.array(sorted(self.categories_left), dtype=np.float64)
        as_int = codes.astype(np.int64)
        if codes.size and (codes == as_int).all() and as_int.min() >= 0:
            table = np.zeros(int(as_int.max()) + 1, dtype=bool)
            table[as_int] = True
            self._category_table = table
        else:
            self._category_array = codes

    def membership_mask(self, values: np.ndarray) -> np.ndarray:
        """Which of ``values`` belong to the left (member) branch."""
        if self._category_table is not None:
            codes = values.astype(np.int64)
            in_range = (
                (codes >= 0)
                & (codes < self._category_table.size)
                & (values == codes)
            )
            mask = np.zeros(values.shape[0], dtype=bool)
            mask[in_range] = self._category_table[codes[in_range]]
            return mask
        if self._category_array is not None:
            positions = np.searchsorted(self._category_array, values)
            positions = np.clip(positions, 0, self._category_array.size - 1)
            return self._category_array[positions] == values
        return np.isin(values, list(self.categories_left or ()))


def _impurity_from_counts(counts: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity per candidate split side from class-count rows.

    ``counts``: (n_candidates, n_classes); ``totals``: (n_candidates,).
    Rows with zero total get impurity 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        proportions = counts / totals[:, None]
        proportions = np.nan_to_num(proportions)
        if criterion == "gini":
            return 1.0 - np.sum(proportions**2, axis=1)
        logs = np.where(proportions > 0, np.log2(proportions), 0.0)
        return -np.sum(proportions * logs, axis=1)


class _FlatTree:
    """One node table holding every tree of a forest, routed level by level.

    The trees' nodes are concatenated depth-first; ``roots`` holds each
    tree's root index.  Per node: split feature, threshold, child ids and
    leaf distribution.  Leaves loop to themselves (feature 0, threshold
    ``+inf``, both children the leaf itself), so one level of routing is the
    same gather, compare and ``np.where`` over the whole ``(n_rows,
    n_trees)`` position matrix, repeated for the deepest tree's depth.  A
    single tree is the one-root case.

    Categorical splits with integer codes have threshold ``-inf`` and a row
    in one boolean membership matrix shared by all trees, indexed by code.
    Row 0 (every other node) and the last column (codes that are unseen,
    negative, out of range or not integers, which go right) are all False.
    Splits over non-integer category values keep their node for a per-row
    fallback.
    """

    def __init__(self, roots: list[TreeNode], n_classes: int) -> None:
        nodes: list[TreeNode] = []
        children: list[tuple[int, int]] = []
        depth = 0

        def add(node: TreeNode, level: int) -> int:
            nonlocal depth
            index = len(nodes)
            nodes.append(node)
            children.append((index, index))
            if node.is_leaf:
                depth = max(depth, level)
            else:
                left_index = add(node.left, level + 1)
                children[index] = (left_index, add(node.right, level + 1))
            return index

        self.roots = np.array([add(root, 0) for root in roots], dtype=np.int64)
        self.depth = depth

        count = len(nodes)
        self.feature = np.zeros(count, dtype=np.int64)
        self.threshold = np.full(count, np.inf, dtype=np.float64)
        self.left = np.array([pair[0] for pair in children], dtype=np.int64)
        self.right = np.array([pair[1] for pair in children], dtype=np.int64)
        self.proba = np.zeros((count, n_classes), dtype=np.float64)
        self.member_offset = np.zeros(count, dtype=np.int64)
        self.fallback_nodes: dict[int, TreeNode] = {}
        tables: list[np.ndarray] = []

        for i, node in enumerate(nodes):
            self.proba[i] = node.proba
            if node.is_leaf:
                continue
            self.feature[i] = node.feature
            self.threshold[i] = node.threshold
            if node.categories_left is not None:
                self.threshold[i] = -np.inf
                if node._category_table is not None:
                    tables.append(node._category_table)
                    self.member_offset[i] = len(tables)
                else:
                    self.fallback_nodes[i] = node

        # Membership rows flattened row-major, ``width`` bools each.
        self.categorical = bool(tables)
        self.width = max((table.size for table in tables), default=0) + 1
        members = np.zeros((len(tables) + 1, self.width), dtype=bool)
        for row, table in enumerate(tables, start=1):
            members[row, : table.size] = table
        self.members = members.ravel()
        self.member_offset *= self.width
        self.is_fallback = np.zeros(count, dtype=bool)
        self.is_fallback[list(self.fallback_nodes)] = True

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf distribution over the trees for finite ``X``."""
        n_rows, n_features = X.shape
        # Every gather is ``take`` on a 1-D array, numpy's cheapest; a row's
        # cells start at ``row_start`` in the raveled matrix.
        row_start = (np.arange(n_rows) * n_features)[:, None]
        cells_flat = X.ravel()
        codes = self._category_codes(cells_flat) if self.categorical else None
        position = np.repeat(self.roots[None, :], n_rows, axis=0)
        for _ in range(self.depth):
            cells = row_start + self.feature.take(position)
            values = cells_flat.take(cells)
            go_left = values <= self.threshold.take(position)
            if codes is not None:
                go_left |= self.members.take(
                    self.member_offset.take(position) + codes.take(cells)
                )
            if self.fallback_nodes:
                for row, tree in zip(*np.nonzero(self.is_fallback.take(position))):
                    node = self.fallback_nodes[int(position[row, tree])]
                    go_left[row, tree] = bool(
                        node.membership_mask(values[row, tree : tree + 1])[0]
                    )
            position = np.where(go_left, self.left.take(position),
                                self.right.take(position))
        # Summing tree by tree keeps the float result identical to averaging
        # per-tree predictions, so no verdict at p = 0.5 flips.
        total = np.zeros((n_rows, self.proba.shape[1]), dtype=np.float64)
        for tree in range(self.roots.size):
            total += self.proba[position[:, tree]]
        return total / self.roots.size

    def _category_codes(self, values: np.ndarray) -> np.ndarray:
        """Membership columns of ``values``; invalid codes → the last, False one."""
        pad = self.width - 1
        clipped = np.clip(values, -1, pad)
        codes = clipped.astype(np.int64)
        codes[(codes != clipped) | (codes < 0)] = pad
        return codes


class DecisionTreeClassifier(BaseClassifier):
    """CART tree with Gini/entropy impurity and vectorized split search.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (paper Table 3 uses 30).
    min_samples_split / min_samples_leaf:
        Minimum node/leaf sizes.
    max_features:
        Features examined per split: None (all), ``"sqrt"``, or an int.
        Random forests pass ``"sqrt"``.
    criterion:
        ``"gini"`` (default) or ``"entropy"``.
    random_state:
        Seed for the feature-subset sampler.
    categorical_features:
        Column indexes whose values are category codes rather than ordered
        numbers.  These columns use CART's exact categorical split for
        binary targets (categories ordered by positive rate, best prefix
        taken), which is also what Spark ML's trees do — and is essential
        for high-cardinality features like the alarm location.  With more
        than two classes the column falls back to threshold splits.
    """

    def __init__(self, max_depth: int = 30, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features: int | str | None = None,
                 criterion: str = "gini", random_state: int | None = None,
                 categorical_features: set[int] | frozenset[int] | None = None) -> None:
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ConfigurationError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if min_samples_leaf < 1:
            raise ConfigurationError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        if criterion not in ("gini", "entropy"):
            raise ConfigurationError(f"criterion must be gini|entropy, got {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.random_state = random_state
        self.categorical_features = (
            frozenset(categorical_features) if categorical_features else frozenset()
        )
        self.root_: TreeNode | None = None
        self.n_classes_: int | None = None
        self.n_features_: int | None = None
        self.n_nodes_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self._flat: _FlatTree | None = None

    # -- training ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``.

        ``n_classes`` can widen the probability vectors beyond the labels
        present (needed when a forest's bootstrap sample misses a class).
        """
        X, y = check_Xy(X, y)
        self.n_classes_ = n_classes if n_classes is not None else int(y.max()) + 1
        self.n_features_ = X.shape[1]
        self.n_nodes_ = 0
        self._rng = np.random.default_rng(self.random_state)
        self._importance_acc = np.zeros(self.n_features_, dtype=np.float64)
        self.root_ = self._grow(X, y, depth=0)
        total = self._importance_acc.sum()
        self.feature_importances_ = (
            self._importance_acc / total if total > 0
            else np.zeros(self.n_features_, dtype=np.float64)
        )
        self._flat = None  # built on first prediction
        return self

    def _n_split_features(self) -> int:
        assert self.n_features_ is not None
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, self.n_features_)
        raise ConfigurationError(f"invalid max_features {self.max_features!r}")

    def _leaf(self, y: np.ndarray) -> TreeNode:
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        self.n_nodes_ += 1
        return TreeNode(proba=counts / counts.sum())

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
        n_samples = X.shape[0]
        if (depth >= self.max_depth or n_samples < self.min_samples_split
                or np.all(y == y[0])):
            return self._leaf(y)

        split = self._best_split(X, y)
        if split is None:
            return self._leaf(y)
        feature, threshold, categories_left, gain = split
        self._importance_acc[feature] += gain * n_samples

        node = self._leaf(y)  # carries this node's distribution for pruning/inspection
        node.feature = feature
        node.threshold = threshold
        node.categories_left = categories_left
        node.prepare_categories()
        if categories_left is not None:
            mask = node.membership_mask(X[:, feature])
        else:
            mask = X[:, feature] <= threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, frozenset[float] | None, float] | None:
        """Best (feature, threshold, categories_left, gain) over a feature subset."""
        n_samples = X.shape[0]
        features = self._rng.permutation(self.n_features_)[: self._n_split_features()]
        parent_counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        parent_impurity = _impurity_from_counts(
            parent_counts[None, :], np.array([float(n_samples)]), self.criterion
        )[0]

        best: tuple[int, float, frozenset[float] | None, float] | None = None
        best_score = parent_impurity - 1e-12  # must strictly improve
        for feature in features:
            column = X[:, feature]
            use_categorical = (
                int(feature) in self.categorical_features and self.n_classes_ == 2
            )
            if use_categorical:
                candidate = self._best_categorical_split(
                    column, y, parent_counts, n_samples
                )
                if candidate is not None and candidate[1] < best_score:
                    categories_left, score = candidate
                    best_score = score
                    best = (
                        int(feature), 0.0, categories_left, parent_impurity - score
                    )
                continue
            order = np.argsort(column, kind="mergesort")
            sorted_vals = column[order]
            sorted_labels = y[order]
            # Candidate boundaries: positions where the value changes.
            change = np.nonzero(sorted_vals[1:] != sorted_vals[:-1])[0]
            if change.size == 0:
                continue
            onehot = np.zeros((n_samples, self.n_classes_), dtype=np.float64)
            onehot[np.arange(n_samples), sorted_labels] = 1.0
            cumulative = np.cumsum(onehot, axis=0)
            left_counts = cumulative[change]
            left_totals = (change + 1).astype(np.float64)
            right_counts = parent_counts[None, :] - left_counts
            right_totals = n_samples - left_totals
            valid = (left_totals >= self.min_samples_leaf) & (
                right_totals >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            left_impurity = _impurity_from_counts(left_counts, left_totals, self.criterion)
            right_impurity = _impurity_from_counts(right_counts, right_totals, self.criterion)
            weighted = (left_totals * left_impurity + right_totals * right_impurity) / n_samples
            weighted[~valid] = np.inf
            best_idx = int(np.argmin(weighted))
            if weighted[best_idx] < best_score:
                boundary = change[best_idx]
                threshold = float(
                    (sorted_vals[boundary] + sorted_vals[boundary + 1]) / 2.0
                )
                best_score = float(weighted[best_idx])
                best = (int(feature), threshold, None, parent_impurity - best_score)
        return best

    def _best_categorical_split(
        self, column: np.ndarray, y: np.ndarray,
        parent_counts: np.ndarray, n_samples: int,
    ) -> tuple[frozenset[float], float] | None:
        """Exact binary-target categorical split (Breiman's ordering trick).

        Categories sorted by their positive rate reduce the exponential
        subset search to a linear prefix scan without losing optimality.
        """
        categories, inverse = np.unique(column, return_inverse=True)
        if categories.size < 2:
            return None
        positives = np.bincount(inverse, weights=(y == 1).astype(np.float64))
        totals = np.bincount(inverse).astype(np.float64)
        rates = positives / totals
        order = np.argsort(rates, kind="mergesort")
        # Prefix sums along the rate ordering give every candidate split.
        sorted_positives = positives[order]
        sorted_totals = totals[order]
        left_pos = np.cumsum(sorted_positives)[:-1]
        left_tot = np.cumsum(sorted_totals)[:-1]
        right_pos = parent_counts[1] - left_pos
        right_tot = n_samples - left_tot
        left_counts = np.column_stack([left_tot - left_pos, left_pos])
        right_counts = np.column_stack([right_tot - right_pos, right_pos])
        valid = (left_tot >= self.min_samples_leaf) & (right_tot >= self.min_samples_leaf)
        if not valid.any():
            return None
        left_impurity = _impurity_from_counts(left_counts, left_tot, self.criterion)
        right_impurity = _impurity_from_counts(right_counts, right_tot, self.criterion)
        weighted = (left_tot * left_impurity + right_tot * right_impurity) / n_samples
        weighted[~valid] = np.inf
        best_idx = int(np.argmin(weighted))
        if not np.isfinite(weighted[best_idx]):
            return None
        categories_left = frozenset(
            float(c) for c in categories[order[: best_idx + 1]]
        )
        return categories_left, float(weighted[best_idx])

    # -- prediction ----------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class distribution of the leaf each row lands in.

        Routing is the forest's level-synchronous kernel over a one-tree
        node table (one gather + compare per depth level for *all* rows),
        which keeps prediction vectorized even for deep trees.
        """
        X = self._check_predict_input(X)
        assert self.root_ is not None and self.n_classes_ is not None
        if getattr(self, "_flat", None) is None:
            self._flat = _FlatTree([self.root_], self.n_classes_)
        return self._flat.predict_proba(X)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_flat"] = None  # rebuilt lazily after unpickling
        return state

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        def walk(node: TreeNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        return walk(self.root_)
