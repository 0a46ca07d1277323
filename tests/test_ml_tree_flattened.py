"""Bit-exact equivalence of the fused node-table predictor (one tree or a
whole forest) with a reference node-by-node traversal, including categorical
splits, unseen codes, pickling and refits."""

import pickle

import numpy as np
import pytest

from repro.ml import FeaturePipeline
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, TreeNode


def reference_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """Slow, obviously-correct traversal of one sample."""
    while not node.is_leaf:
        if node.categories_left is not None:
            go_left = float(x[node.feature]) in node.categories_left
        else:
            go_left = x[node.feature] <= node.threshold
        node = node.left if go_left else node.right
    return node.proba


def reference_forest_predict(forest: RandomForestClassifier, X: np.ndarray) -> np.ndarray:
    """Per-sample reference traversal of every tree, averaged in tree order."""
    total = np.zeros((X.shape[0], forest.n_classes_))
    for tree in forest.trees_:
        total += np.array([reference_predict(tree.root_, x) for x in X])
    return total / len(forest.trees_)


def predict_in_batches(model, X: np.ndarray, batch: int) -> np.ndarray:
    return np.vstack([
        model.predict_proba(X[start:start + batch])
        for start in range(0, X.shape[0], batch)
    ])


def make_mixed_data(rng, n=300):
    X = np.column_stack([
        rng.integers(0, 12, size=n).astype(float),   # categorical col 0
        rng.integers(0, 30, size=n).astype(float),   # categorical col 1
        rng.normal(size=n), rng.normal(size=n), rng.normal(size=n),
    ])
    y = ((X[:, 0] % 3 == 0) ^ (X[:, 2] > 0)).astype(int)
    return X, y


@pytest.mark.parametrize("trial", range(8))
def test_flattened_matches_reference_traversal(trial):
    rng = np.random.default_rng(trial)
    X, y = make_mixed_data(rng)
    tree = DecisionTreeClassifier(
        max_depth=8, random_state=trial, categorical_features={0, 1}
    ).fit(X, y)
    X_test = np.column_stack([
        rng.integers(-2, 15, size=60).astype(float),  # incl. unseen/negative
        rng.integers(0, 35, size=60).astype(float),
        rng.normal(size=60), rng.normal(size=60), rng.normal(size=60),
    ])
    fast = tree.predict_proba(X_test)
    slow = np.array([reference_predict(tree.root_, x) for x in X_test])
    assert np.array_equal(fast, slow)


def test_flattened_rebuilds_after_pickle_round_trip():
    rng = np.random.default_rng(42)
    X, y = make_mixed_data(rng)
    tree = DecisionTreeClassifier(
        max_depth=6, random_state=0, categorical_features={0, 1}
    ).fit(X, y)
    expected = tree.predict_proba(X[:30])
    restored = pickle.loads(pickle.dumps(tree))
    assert restored._flat is None  # dropped on pickling, rebuilt lazily
    assert np.array_equal(restored.predict_proba(X[:30]), expected)


def test_flattened_handles_non_integer_category_codes():
    """Non-integer categorical values route through the fallback path."""
    rng = np.random.default_rng(1)
    codes = np.array([0.5, 1.5, 2.5, 3.5])
    X = rng.choice(codes, size=(200, 1))
    y = (np.isin(X[:, 0], [0.5, 2.5])).astype(int)
    tree = DecisionTreeClassifier(
        max_depth=3, random_state=0, categorical_features={0}
    ).fit(X, y)
    assert tree.score(X, y) == 1.0
    slow = np.array([reference_predict(tree.root_, x) for x in X[:50]])
    assert np.array_equal(tree.predict_proba(X[:50]), slow)


# -- the forest's fused table ------------------------------------------------------


BATCHES = [1, 2, 6, 500]


def make_test_rows(rng, n=500):
    """Rows with unseen (>= 12 / >= 30) and negative category codes."""
    return np.column_stack([
        rng.integers(-3, 16, size=n).astype(float),
        rng.integers(-1, 36, size=n).astype(float),
        rng.normal(size=n), rng.normal(size=n), rng.normal(size=n),
    ])


@pytest.fixture(scope="module")
def categorical_forest():
    rng = np.random.default_rng(3)
    X, y = make_mixed_data(rng)
    forest = RandomForestClassifier(
        n_estimators=12, max_depth=10, random_state=3, categorical_features={0, 1}
    ).fit(X, y)
    X_test = make_test_rows(rng)
    return forest, X_test, reference_forest_predict(forest, X_test)


@pytest.mark.parametrize("batch", BATCHES)
def test_forest_matches_reference_with_unseen_and_negative_codes(categorical_forest, batch):
    forest, X_test, expected = categorical_forest
    assert forest._table.categorical  # exercises the membership matrix
    assert ((X_test[:, 0] < 0) | (X_test[:, 0] >= 12)).any()
    assert np.array_equal(predict_in_batches(forest, X_test, batch), expected)


@pytest.fixture(scope="module")
def mixed_code_forest():
    """Column 0 holds integer codes, column 1 non-integer ones."""
    rng = np.random.default_rng(5)
    n = 300
    X = np.column_stack([
        rng.integers(0, 10, size=n).astype(float),
        rng.choice([0.5, 1.5, 2.5, 3.5, 4.5], size=n),
        rng.normal(size=n),
    ])
    y = ((X[:, 0] % 3 == 0) ^ np.isin(X[:, 1], [0.5, 3.5])).astype(int)
    forest = RandomForestClassifier(
        n_estimators=10, max_depth=8, random_state=5, categorical_features={0, 1}
    ).fit(X, y)
    X_test = np.column_stack([
        rng.integers(-2, 13, size=500).astype(float),
        rng.choice([0.5, 1.5, 2.5, 3.5, 4.5, 5.5, -0.5], size=500),
        rng.normal(size=500),
    ])
    return forest, X_test, reference_forest_predict(forest, X_test)


@pytest.mark.parametrize("batch", BATCHES)
def test_forest_mixing_integer_and_non_integer_codes_matches_reference(
        mixed_code_forest, batch):
    forest, X_test, expected = mixed_code_forest
    assert forest._table.categorical and forest._table.fallback_nodes
    assert np.array_equal(predict_in_batches(forest, X_test, batch), expected)


@pytest.fixture(scope="module")
def three_class_forest():
    """Class 2 is one sample in 60, so some bootstrap samples miss it."""
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] > 0).astype(int)
    y[0] = 2
    forest = RandomForestClassifier(n_estimators=15, max_depth=6, random_state=9).fit(X, y)
    X_test = rng.normal(size=(500, 4))
    return forest, X_test, reference_forest_predict(forest, X_test)


@pytest.mark.parametrize("batch", BATCHES)
def test_three_class_forest_with_widened_trees_matches_reference(three_class_forest, batch):
    forest, X_test, expected = three_class_forest
    assert forest.n_classes_ == 3
    assert any(tree.root_.proba[2] == 0.0 for tree in forest.trees_)
    assert all(tree.root_.proba.size == 3 for tree in forest.trees_)
    assert np.array_equal(predict_in_batches(forest, X_test, batch), expected)


def test_forest_pickle_holds_no_table_and_rebuilds_it(categorical_forest):
    forest, X_test, expected = categorical_forest
    blob = pickle.dumps(forest)
    # The same forest pickled without the attribute, as forests were before
    # the table existed: the pickle may only differ by the ``None`` entry.
    legacy = {k: v for k, v in forest.__dict__.items() if k != "_table"}
    assert len(blob) < len(pickle.dumps(legacy)) + 64
    assert len(pickle.dumps(forest._table)) > 10_000  # a leaked table would show
    restored = pickle.loads(blob)
    assert restored._table is None
    assert np.array_equal(restored.predict_proba(X_test), expected)
    assert restored._table is not None


def test_forest_pickled_without_table_attribute_loads_and_predicts(
        categorical_forest, monkeypatch):
    forest, X_test, expected = categorical_forest
    monkeypatch.setattr(
        RandomForestClassifier, "__getstate__",
        lambda self: {k: v for k, v in self.__dict__.items() if k != "_table"},
    )
    blob = pickle.dumps(forest)
    monkeypatch.undo()
    restored = pickle.loads(blob)
    assert "_table" not in vars(restored)
    assert np.array_equal(restored.predict_proba(X_test), expected)


def test_saved_pipeline_file_holds_no_table(tmp_path):
    rng = np.random.default_rng(4)
    records = [{"zone": f"z{int(v)}", "kind": f"k{int(v) % 3}"}
               for v in rng.integers(0, 8, size=200)]
    labels = [r["zone"] in ("z1", "z3") for r in records]
    pipeline = FeaturePipeline(
        RandomForestClassifier(n_estimators=8, max_depth=6, random_state=0),
        ["zone", "kind"], encoding="ordinal",
    ).fit(records, labels)
    expected = pipeline.predict_proba(records)
    path = tmp_path / "model.pkl"
    pipeline.save(path)
    loaded = FeaturePipeline.load(path)
    assert loaded.model._table is None
    assert np.array_equal(loaded.predict_proba(records), expected)


def test_refit_rebuilds_the_table(categorical_forest, three_class_forest):
    _, X_binary, _ = categorical_forest
    _, X_three, _ = three_class_forest
    rng = np.random.default_rng(3)
    X, y = make_mixed_data(rng)
    forest = RandomForestClassifier(
        n_estimators=6, max_depth=8, random_state=1, categorical_features={0, 1}
    ).fit(X, y)
    first = forest._table
    assert np.array_equal(forest.predict_proba(X_binary),
                          reference_forest_predict(forest, X_binary))
    X2 = rng.normal(size=(80, 4))
    y2 = rng.integers(0, 3, size=80)
    forest.fit(X2, y2)
    assert forest._table is not first
    assert forest.predict_proba(X_three).shape == (500, 3)
    assert np.array_equal(forest.predict_proba(X_three),
                          reference_forest_predict(forest, X_three))
