import numpy as np
import pytest

from ufcast.exceptions import (
    DimensionMismatchError,
    KTooLargeError,
    NotFittedError,
)
from ufcast.regress import KNNRegressor, LinearRegressor


class TestLinearRegressor:
    def test_simple_regression_closed_form(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 3.0, 5.0])
        r = LinearRegressor().fit(X, y)
        assert r.coef_[0] == pytest.approx(2.0, abs=1e-10)
        assert r.intercept_ == pytest.approx(1.0, abs=1e-10)

    def test_constant_target(self):
        X = np.array([[1.0], [2.0], [3.0]])
        r = LinearRegressor().fit(X, np.full(3, 4.0))
        assert r.coef_[0] == pytest.approx(0.0, abs=1e-12)
        assert r.intercept_ == pytest.approx(4.0)

    def test_collinear_columns_match_pseudoinverse(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(8, 2))
        X = np.column_stack([base, base[:, 0]])  # duplicated column
        y = base @ np.array([1.5, -0.5]) + 2.0

        # oracle: centred pseudoinverse solution
        Xc = X - X.mean(axis=0)
        coef = np.linalg.pinv(Xc) @ (y - y.mean())

        r = LinearRegressor().fit(X, y)
        assert np.all(np.isfinite(r.coef_))
        np.testing.assert_allclose(r.coef_, coef, atol=1e-10)
        np.testing.assert_allclose(r.predict(X), y, atol=1e-9)

    def test_training_sse_is_minimal(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        r = LinearRegressor().fit(X, y)
        best = np.sum((r.predict(X) - y) ** 2)
        for d0 in (-0.05, 0.0, 0.05):
            for d1 in (-0.05, 0.0, 0.05):
                for di in (-0.05, 0.0, 0.05):
                    coef = r.coef_ + [d0, d1]
                    sse = np.sum((X @ coef + r.intercept_ + di - y) ** 2)
                    assert best <= sse + 1e-12

    def test_no_intercept(self):
        X = np.array([[1.0], [2.0]])
        r = LinearRegressor(fit_intercept=False).fit(X, np.array([2.0, 4.0]))
        assert r.intercept_ == 0.0
        assert r.coef_[0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        r = LinearRegressor().fit(np.eye(3), np.ones(3))
        with pytest.raises(DimensionMismatchError):
            r.predict(np.ones((1, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(20, 4)), rng.normal(size=20)
        a = LinearRegressor().fit(X, y).predict(X)
        b = LinearRegressor().fit(X, y).predict(X)
        assert np.array_equal(a, b)


class TestKNNRegressor:
    def test_exact_match(self):
        X = np.array([[0.0, 1.0], [5.0, 5.0]])
        r = KNNRegressor(k=1).fit(X, np.array([10.0, 20.0]))
        assert r.predict([[5.0, 5.0]])[0] == 20.0

    def test_k_equals_n_is_mean(self):
        X = np.arange(4.0).reshape(-1, 1)
        r = KNNRegressor(k=4).fit(X, np.array([1.0, 2.0, 3.0, 6.0]))
        assert r.predict([[0.0]])[0] == pytest.approx(3.0)

    def test_equidistant_tie_breaks_to_lower_index(self):
        X = np.array([[-1.0], [1.0]])
        r = KNNRegressor(k=1).fit(X, np.array([100.0, 200.0]))
        assert r.predict([[0.0]])[0] == 100.0

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            KNNRegressor(k=3).fit(np.eye(2), np.ones(2))

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        r = KNNRegressor(k=5).fit(X, y)
        preds = r.predict(rng.normal(size=(50, 3)))
        assert np.all(preds >= y.min()) and np.all(preds <= y.max())

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X, y = rng.normal(size=(25, 2)), rng.normal(size=25)
        q = rng.normal(size=(10, 2))
        a = KNNRegressor(k=3).fit(X, y).predict(q)
        b = KNNRegressor(k=3).fit(X, y).predict(q)
        assert np.array_equal(a, b)


class TestFittedState:
    def test_predict_requires_fit(self):
        for r in (LinearRegressor(), KNNRegressor(k=1)):
            with pytest.raises(NotFittedError):
                r.predict([[0.0]])

    def test_set_params_drops_fit(self):
        # a fit with k=10 on 3 rows would raise KTooLargeError, so the old
        # k=1 fit must not answer for it
        X, y = np.eye(3), np.array([1.0, 2.0, 3.0])
        knn = KNNRegressor(k=1).fit(X, y).set_params(k=10)
        lr = LinearRegressor().fit(X, y).set_params(fit_intercept=False)
        for r in (knn, lr):
            assert r.is_fitted is False
            with pytest.raises(NotFittedError):
                r.predict(X)

    def test_failed_refit_drops_old_fit(self):
        knn = KNNRegressor(k=2).fit(np.eye(3), np.ones(3))
        with pytest.raises(KTooLargeError):
            knn.fit(np.eye(1), np.ones(1))
        with pytest.raises(NotFittedError):
            knn.predict([[0.0, 0.0, 0.0]])
