import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ufcast import regress
from ufcast.exceptions import (
    DimensionMismatchError,
    KTooLargeError,
    NotFittedError,
)
from ufcast.regress import KNNRegressor, LinearRegressor

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # optional test dependency; the property test skips
    given = st = None


def _given_data(test):
    """``@given(st.data())``, or a skip when hypothesis is missing."""
    if given is None:
        return pytest.mark.skip(reason="hypothesis is not installed")(test)
    return given(st.data())(test)


def _reference_knn(X, y, Q, k):
    """The straight per-row loop: fresh differences, stable full sort; NaN
    for a row holding NaN or an infinity."""
    out = np.empty(Q.shape[0])
    for i, row in enumerate(Q):
        if not np.isfinite(row).all():
            out[i] = np.nan
            continue
        d2 = np.sum((X - row) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[:k]
        out[i] = y[nearest].mean()
    return out


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

    @pytest.mark.parametrize("value", ["no", 0, 1, None], ids=repr)
    def test_fit_intercept_must_be_a_bool(self, value):
        # "no" is truthy: read as a flag, it would fit an intercept
        with pytest.raises(ValueError, match="fit_intercept must be a bool"):
            LinearRegressor(fit_intercept=value)
        r = LinearRegressor(fit_intercept=np.bool_(False))
        with pytest.raises(ValueError, match="fit_intercept"):
            r.set_params(fit_intercept=value)
        assert r.fit_intercept is np.bool_(False)
        r.fit(np.array([[1.0], [2.0]]), np.array([3.0, 5.0]))
        assert r.intercept_ == 0.0

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

    @pytest.mark.parametrize("X, y", [
        ([[0.0], [np.nan]], [1.0, 2.0]),
        ([[0.0], [np.inf]], [1.0, 2.0]),
        ([[0.0], [1.0]], [1.0, np.nan]),
        ([[0.0], [1.0]], [-np.inf, 2.0]),
    ], ids=["nan-x", "inf-x", "nan-y", "inf-y"])
    def test_non_finite_training_data_rejected(self, X, y):
        # a NaN distance would be argmin's pick but the stable sort's last
        with pytest.raises(ValueError, match="finite"):
            KNNRegressor(k=1).fit(X, y)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_non_finite_query_row_predicts_nan(self, k, filtered):
        # every distance is NaN or inf, so argmin/argsort alone would pick
        # row 0 (k=1) or the first k rows; the finite row still predicts
        X = np.arange(12.0).reshape(6, 2)
        y = np.arange(6.0) * 10
        Q = [[np.nan, 5.0], [11.0, np.inf], [-np.inf, 0.0], [2.0, 3.0]]
        size = 0 if filtered else regress._FILTER_MIN_SIZE
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(regress, "_FILTER_MIN_SIZE", size):
            knn = KNNRegressor(k=k).fit(X, y)
            assert (knn._bounds is not None) is filtered
            got = knn.predict(Q)
        assert np.isnan(got[:3]).all()
        assert got[3] == (10.0 if k == 1 else 5.0)

    @_given_data
    def test_predict_matches_reference_bitwise(self, data):
        # small integers make duplicate rows and exact distance ties common;
        # the refit on a new shape catches state left from the first fit
        ints = st.integers(-3, 3)
        reg = KNNRegressor(k=data.draw(st.sampled_from([1, 2, 3])))
        for _ in range(2):
            n = data.draw(st.integers(reg.k, 30))
            w = data.draw(st.integers(1, 6))
            X = np.array(data.draw(st.lists(ints, min_size=n * w,
                                            max_size=n * w)),
                         dtype=float).reshape(n, w)
            if data.draw(st.booleans()):
                X = np.asfortranarray(X)
            y = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)),
                         dtype=float)
            m = data.draw(st.integers(1, 5))
            Q = np.array(data.draw(st.lists(st.integers(-4, 4),
                                            min_size=m * w, max_size=m * w)),
                         dtype=float).reshape(m, w)
            got = reg.fit(X, y).predict(Q)
            assert got.tobytes() == _reference_knn(X, y, Q, reg.k).tobytes()

    @_given_data
    def test_filter_matches_reference_bitwise(self, data):
        # the cutoff is lifted so small tables take the filter; w runs past
        # numpy's 8-lane pairwise block, norms underflow (1e-160) and
        # overflow (1e155), near-duplicate rows differ by one ulp, and the
        # targets are distinct so any other neighbour shows
        seed = data.draw(st.integers(0, 2**32 - 1))
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(k, 40))
        w = data.draw(st.integers(1, 30))
        scales = data.draw(st.lists(st.sampled_from(
            [1.0, 1.0, 1e-3, 1e-80, 1e80, 1e-160, 1e150, 1e155]),
            min_size=1, max_size=2))
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans()):
            X = rng.integers(-2, 3, size=(n, w)).astype(float)
        else:
            X = rng.normal(size=(n, w))
        X *= rng.choice(scales, size=(n, 1))
        pairs = rng.integers(0, n, size=(data.draw(st.integers(0, 6)), 2))
        for i, j in pairs:
            nudged = np.nextafter(X[i], rng.choice([-np.inf, np.inf], size=w))
            X[j] = np.where(rng.random(w) < 0.5, X[i], nudged)
        for j in rng.integers(0, n, size=data.draw(st.integers(0, 2))):
            X[j] = X[j, 0]
        if data.draw(st.booleans()):
            X = np.asfortranarray(X)
        y = rng.permutation(n).astype(float)
        m = data.draw(st.integers(1, 4))
        Q = X[rng.integers(0, n, size=m)]
        Q *= rng.choice([1.0, 1 + 2**-52], size=(m, w))
        noise = rng.choice([0.0, 1e-6, 1e-2, 1.0], size=(m, 1))
        Q += noise * np.abs(Q).max(axis=1, keepdims=True) * rng.normal(
            size=(m, w))
        far = data.draw(st.sampled_from([1.0, 1.0, 1e-160, 1e160]))
        for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
            Q[rng.integers(m), rng.integers(w)] = rng.choice(
                [np.nan, np.inf, -np.inf])
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(regress, "_FILTER_MIN_SIZE", 0):
            Q *= rng.choice([1.0, far], size=(m, 1))
            got = KNNRegressor(k=k).fit(X, y).predict(Q)
            want = _reference_knn(X, y, Q, k)
        assert got.tobytes() == want.tobytes()

    def test_underflowing_distances_match_reference(self):
        # small integer multiples of 1e-158 and 3e-161 square into the
        # subnormals, where the relative part of the filter's bound
        # rounds to zero and only the absolute term keeps tied rows
        rng = np.random.default_rng(0)
        with mock.patch.object(regress, "_FILTER_MIN_SIZE", 0):
            for _ in range(1500):
                n, w = rng.integers(2, 12), rng.integers(1, 6)
                scale = rng.choice([1e-158, 3e-161])
                X = rng.integers(-3, 4, size=(n, w)) * scale
                Q = rng.integers(-3, 4, size=(3, w)) * scale
                y = rng.permutation(n).astype(float)
                got = KNNRegressor(k=1).fit(X, y).predict(Q)
                want = _reference_knn(X, y, Q, 1)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_either_side_of_cutoff_matches_reference(self, k, order):
        # sliding windows of a seasonal walk, as the reduction forecaster
        # builds them: one table just below the cutoff, one at or above it
        w = 24
        rng = np.random.default_rng(7)
        t = np.arange(200)
        series = (np.sin(2 * np.pi * t / w) * 10
                  + np.cumsum(rng.normal(size=t.size)))
        windows = np.lib.stride_tricks.sliding_window_view(series, w)
        n_below = (regress._FILTER_MIN_SIZE - 1) // w
        for n, filtered in ((n_below, False), (n_below + 1, True)):
            X = np.asarray(windows[:n], order=order)
            y = series[w:w + n]
            knn = KNNRegressor(k=k).fit(X, y)
            assert (knn._bounds is not None) is filtered
            Q = np.vstack([windows[n:n + 20], windows[:5]])
            got = knn.predict(Q)
            assert got.tobytes() == _reference_knn(X, y, Q, k).tobytes()

    @pytest.mark.parametrize("layout", ["C", "F", "C rows strided",
                                        "F rows strided"])
    def test_refine_sums_rows_as_the_full_table(self, layout):
        # the refine's distances to a subset of rows are bit for bit the
        # full table's: pairwise per row in C order, column by column in F
        rng = np.random.default_rng(11)
        A = rng.normal(size=(120, 24)) * 10.0 ** rng.integers(-4, 5, (120, 24))
        X = {"C": np.ascontiguousarray(A[:60]),
             "F": np.asfortranarray(A[:60]),
             "C rows strided": np.ascontiguousarray(A)[::2],
             "F rows strided": np.asfortranarray(A)[::2]}[layout]
        knn = KNNRegressor(k=1).fit(X, np.zeros(60))
        q = rng.normal(size=24)
        full = knn._distances(q, None)
        for m in (2, 3, 17, 60):
            rows = np.sort(rng.choice(60, m, replace=False))
            assert knn._distances(q, rows).tobytes() == full[rows].tobytes()

    def test_one_row_predict_allocates_no_table(self):
        # 200 one-row calls at n=700, w=24 must peak below one (n, w) float
        # array: the filter works on n-vectors, and the refine copies only
        # the candidate rows
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(700, 24)), rng.normal(size=700)
        knn = KNNRegressor(k=1).fit(X, y)
        rows = rng.normal(size=(200, 1, 24))
        tracemalloc.start()
        try:
            for row in rows:
                knn.predict(row)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes == 134_400

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_multi_row_predict_matches_one_row_predicts(self, k, order):
        # a multi-row predict ranks each row as a one-row predict does:
        # against the whole table below the cutoff and, above it, for the
        # queries past the filter's norm limit
        rng = np.random.default_rng(3)
        w = 12
        for n in ((regress._FILTER_MIN_SIZE - 1) // w,
                  regress._FILTER_MIN_SIZE // w + 1):
            A = rng.normal(size=(n, w)) * 10.0 ** rng.integers(-3, 4, (n, w))
            X = np.asarray(A, order=order)
            y = rng.normal(size=n)
            knn = KNNRegressor(k=k).fit(X, y)
            assert knn._X.flags[f"{order}_CONTIGUOUS"]
            Q = np.vstack([X[rng.integers(0, n, 8)]
                           + 1e-3 * rng.normal(size=(8, w)),
                           rng.normal(size=(8, w))])
            for i in (2, 11):  # squares stay finite, q.q passes the limit
                Q[i] *= 1e152 / np.abs(Q[i]).max()
            got = knn.predict(Q)
            one_by_one = np.concatenate([knn.predict(row) for row in Q])
            assert got.tobytes() == one_by_one.tobytes()
            assert got.tobytes() == _reference_knn(X, y, Q, k).tobytes()


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
