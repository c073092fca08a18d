import itertools

import numpy as np
import pytest
from scipy import integrate
from scipy import special
from scipy import stats

from ufcast.evaluation import (
    EvalRecord,
    RankMatrix,
    critical_difference_report,
    friedman_test,
    holm_adjust,
    mase,
    mean_ranks,
    nemenyi_critical_difference,
    nemenyi_groups,
    owa,
    paired_t_test,
    rank_models,
    smape,
    wilcoxon_signed_rank,
)
from ufcast.exceptions import (
    AllZeroDifferencesError,
    IncompleteGridError,
    LengthMismatchError,
    NonFiniteInputError,
    SeriesMismatchError,
    UnsupportedAlphaError,
    ZeroDenominatorError,
    ZeroVarianceError,
)


def records(model, values, metric="smape"):
    other = {"smape": "mase", "mase": "smape"}[metric]
    return [
        EvalRecord(series_id=f"s{i}", model=model,
                   **{metric: v, other: 1.0})
        for i, v in enumerate(values)
    ]


class TestSmape:
    def test_perfect_forecast(self):
        assert smape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_term_formula(self):
        assert smape([100.0], [300.0]) == pytest.approx(100.0)

    def test_zero_zero_term(self):
        assert smape([0.0], [0.0]) == 0.0
        assert smape([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_bounds(self):
        assert smape([1.0], [-1.0]) == pytest.approx(200.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            smape([1.0], [1.0, 2.0])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(5, 2, 12)
            p = rng.normal(5, 2, 12)
            assert smape(y, p) == pytest.approx(smape(p, y))
            for c in (0.1, 3.0, 1000.0):
                assert smape(c * y, c * p) == pytest.approx(smape(y, p))


class TestMase:
    def test_unit_difference_example(self):
        # train (1,2,3,4): every lag-1 difference is 1 under both conventions
        assert mase([5.0], [6.0], [1, 2, 3, 4], sp=1) == pytest.approx(1.0)
        assert mase([5.0], [6.0], [1, 2, 3, 4], sp=1,
                    denominator="train_only") == pytest.approx(1.0)

    def test_perfect_forecast_is_zero(self):
        # seasonal series with enough in-sample variation to scale by
        train = np.array([1.0, 2.0, 3.0, 1.1, 2.2, 3.1, 1.2, 2.1, 3.3])
        test = np.array([1.15, 2.15, 3.2])
        assert mase(test, test.copy(), train, sp=3) == 0.0

    def test_constant_series_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            mase([5.0], [6.0], np.full(10, 5.0), sp=1)

    def test_conventions_differ_when_test_moves(self):
        train = np.array([1.0, 2.0, 3.0, 4.0])
        test, pred = np.array([14.0]), np.array([10.0])
        a = mase(test, pred, train, sp=1)
        b = mase(test, pred, train, sp=1, denominator="train_only")
        # as_formula includes the large train->test jump in the scaling
        assert a < b

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        train = rng.normal(10, 2, 30)
        test, pred = rng.normal(10, 2, 5), rng.normal(10, 2, 5)
        base = mase(test, pred, train, sp=1)
        for c in (0.5, 7.0):
            assert mase(c * test, c * pred, c * train, sp=1) == pytest.approx(base)


class TestOwa:
    def test_reference_against_itself(self):
        recs = records("Naive2", [3.0, 4.0, 5.0])
        assert owa(recs, recs) == 1.0

    def test_halved_smape(self):
        ref = [EvalRecord(f"s{i}", "ref", smape=2.0, mase=1.0) for i in range(4)]
        own = [EvalRecord(f"s{i}", "m", smape=1.0, mase=1.0) for i in range(4)]
        assert owa(own, ref) == pytest.approx(0.75)

    def test_series_mismatch(self):
        with pytest.raises(SeriesMismatchError):
            owa(records("a", [1.0, 2.0]), records("b", [1.0, 2.0, 3.0]))

    def test_zero_reference_parity(self):
        ref = [EvalRecord("s0", "ref", smape=0.0, mase=0.0)]
        own = [EvalRecord("s0", "m", smape=0.0, mase=0.0)]
        assert owa(own, ref) == 1.0


class TestPairedT:
    def test_identical_samples_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_hand_value_with_quadrature_oracle(self):
        t, p = paired_t_test([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
        assert t == pytest.approx(2.0 * np.sqrt(3), rel=1e-12)

        # independent oracle: numerically integrate the t density (df = 2)
        df = 2

        def pdf(x):
            return (special.gamma((df + 1) / 2)
                    / (np.sqrt(df * np.pi) * special.gamma(df / 2))
                    * (1 + x ** 2 / df) ** (-(df + 1) / 2))

        tail, _ = integrate.quad(pdf, t, np.inf)
        assert p == pytest.approx(2 * tail, abs=1e-10)
        assert p == pytest.approx(0.0742, abs=2e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_difference_rejected(self, bad):
        with pytest.raises(NonFiniteInputError):
            paired_t_test([1.0, bad, 3.0], [0.0, 0.0, 0.0])

    def test_swapping_negates_t(self):
        a = np.array([5.0, 7.0, 9.0, 6.0])
        b = np.array([4.0, 8.0, 7.0, 5.0])
        t1, p1 = paired_t_test(a, b)
        t2, p2 = paired_t_test(b, a)
        assert t1 == -t2
        assert p1 == pytest.approx(p2)


class TestFriedman:
    def fixture_matrix(self):
        return RankMatrix(models=list("abc"), series=[f"s{i}" for i in range(10)],
                          ranks=np.tile([1.0, 2.0, 3.0], (10, 1)))

    def test_constant_orderings_statistic(self):
        chi2, p = friedman_test(self.fixture_matrix())
        assert chi2 == pytest.approx(20.0)
        assert p < 0.001

    def test_chi2_tail_quadrature_oracle(self):
        chi2, p = friedman_test(self.fixture_matrix())
        df = 2

        def pdf(x):
            return x ** (df / 2 - 1) * np.exp(-x / 2) / (
                2 ** (df / 2) * special.gamma(df / 2)
            )

        tail, _ = integrate.quad(pdf, chi2, np.inf)
        assert p == pytest.approx(tail, rel=1e-9)

    def test_nan_rank_rejected(self):
        ranks = np.tile([1.0, 2.0, 3.0], (4, 1))
        ranks[2] = np.nan
        with pytest.raises(NonFiniteInputError):
            friedman_test(RankMatrix(list("abc"), list(range(4)), ranks))

    def test_nan_score_rejected(self):
        scores = [[1.0, 2.0], [np.nan, 1.0], [2.0, 1.0]]
        recs = [EvalRecord(f"s{i}", f"m{j}", smape=v, mase=1.0)
                for i, row in enumerate(scores) for j, v in enumerate(row)]
        with pytest.raises(NonFiniteInputError):
            friedman_test(rank_models(recs))

    def test_full_ties_zero(self):
        ranks = np.full((6, 4), 2.5)
        chi2, _ = friedman_test(RankMatrix(list("abcd"), list(range(6)), ranks))
        assert chi2 == pytest.approx(0.0)

    def test_matches_brute_force_from_raw_scores(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            scores = rng.normal(size=(5, 4))
            recs = [
                EvalRecord(f"s{i}", f"m{j}", smape=float(scores[i, j]), mase=1.0)
                for i in range(5) for j in range(4)
            ]
            matrix = rank_models(recs, metric="smape")
            chi2, _ = friedman_test(matrix)

            # brute force: re-rank by hand, apply the displayed formula
            n, k = scores.shape
            hand_ranks = np.empty_like(scores)
            for i in range(n):
                order = scores[i].argsort()
                hand_ranks[i, order] = np.arange(1, k + 1)  # no ties w.p. 1
            rbar = hand_ranks.mean(axis=0)
            hand = 12 * n / (k * (k + 1)) * (np.sum(rbar ** 2)
                                             - k * (k + 1) ** 2 / 4)
            assert chi2 == pytest.approx(hand, rel=1e-9)


class TestNemenyi:
    def test_two_model_closed_form(self):
        for n in (5, 25, 100):
            assert nemenyi_critical_difference(2, n) == pytest.approx(
                1.959964 / np.sqrt(n), rel=1e-6
            )

    def test_identical_ranks_always_grouped(self):
        groups = nemenyi_groups([2.0, 2.0], cd=1e-9)
        assert groups == [(0, 1)]

    def test_cd_decreases_with_n(self):
        cds = [nemenyi_critical_difference(5, n) for n in (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(cds, cds[1:]))

    def test_unsupported_alpha(self):
        with pytest.raises(UnsupportedAlphaError):
            nemenyi_critical_difference(3, 10, alpha=0.01)

    def test_table_matches_studentized_range(self):
        from scipy.stats import studentized_range

        for k in (2, 5, 17, 30):
            for alpha in (0.05, 0.10):
                q = studentized_range.ppf(1 - alpha, k, np.inf) / np.sqrt(2)
                cd = nemenyi_critical_difference(k, 50, alpha)
                expected = q * np.sqrt(k * (k + 1) / (6 * 50))
                assert cd == pytest.approx(expected, rel=1e-5)

    def test_grouping_is_maximal_cliques(self):
        mean = [1.0, 1.4, 2.5, 2.7, 4.0]
        groups = nemenyi_groups(mean, cd=1.0)
        assert groups == [(0, 1), (2, 3), (4,)]

    def test_report_sorted_ascending(self):
        rep = critical_difference_report(["b", "a"], [2.0, 1.0], n_series=30)
        assert [m["model"] for m in rep["models"]] == ["a", "b"]
        assert rep["critical_difference"] == pytest.approx(
            nemenyi_critical_difference(2, 30)
        )


class TestWilcoxon:
    def test_all_positive_differences_exact(self):
        w, p = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 1, 1, 1, 1])
        assert w == 0.0
        assert p == pytest.approx(2 / 32)  # one tail 1/32, two-sided 1/16

    def test_all_zero_differences(self):
        with pytest.raises(AllZeroDifferencesError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("n", [3, 30], ids=["exact", "normal"])
    def test_nan_difference_rejected(self, n):
        a = np.arange(1.0, n + 1.0)
        a[1] = np.nan
        with pytest.raises(NonFiniteInputError):
            wilcoxon_signed_rank(a, np.zeros(n))

    def test_exact_matches_sign_enumeration(self):
        """Full 2^n enumeration oracle for n <= 10, including ties."""
        rng = np.random.default_rng(3)
        from scipy.stats import rankdata

        for trial in range(12):
            n = int(rng.integers(3, 11))
            d = rng.integers(-5, 6, size=n).astype(float)
            d[d == 0] = 1.0  # keep n fixed
            if trial % 3 == 0:
                d[: n // 2] = np.sign(d[: n // 2]) * 2.0  # force ties
            a = d.copy()
            b = np.zeros(n)

            w_obs, p_got = wilcoxon_signed_rank(a, b)

            ranks = rankdata(np.abs(d), method="average")
            count_leq = 0
            for signs in itertools.product((1, -1), repeat=n):
                w_plus = sum(r for s, r in zip(signs, ranks) if s > 0)
                w_minus = sum(r for s, r in zip(signs, ranks) if s < 0)
                if min(w_plus, w_minus) <= 0:
                    pass
                # distribution of W+ (enumeration convention)
                count_leq += (w_plus <= w_obs + 1e-12)
            p_exact = min(1.0, 2.0 * count_leq / 2 ** n)
            assert p_got == pytest.approx(p_exact, abs=1e-12), (d, w_obs)

    def test_normal_approximation_for_large_n(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.3, 1.0, 60)
        b = np.zeros(60)
        w, p = wilcoxon_signed_rank(a, b)
        from scipy.stats import wilcoxon as scipy_wilcoxon

        ref = scipy_wilcoxon(a, b, correction=False, mode="approx")
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


class TestHolm:
    def test_step_down_fixture(self):
        np.testing.assert_allclose(
            holm_adjust([0.01, 0.04, 0.03]), [0.03, 0.06, 0.06]
        )

    def test_single_value_unchanged(self):
        np.testing.assert_allclose(holm_adjust([0.2]), [0.2])

    def test_monotone_and_dominating(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.uniform(0, 1, size=rng.integers(1, 12))
            adj = holm_adjust(p)
            assert np.all(adj >= p - 1e-15)
            assert np.all(adj <= 1.0)
            order = np.argsort(p, kind="stable")
            assert np.all(np.diff(adj[order]) >= -1e-15)


class TestRanks:
    def test_plain_ordering(self):
        recs = (records("a", [1.0]) + records("b", [2.0]) + records("c", [3.0]))
        matrix = rank_models(recs)
        np.testing.assert_array_equal(matrix.ranks, [[1.0, 2.0, 3.0]])

    def test_ties_averaged(self):
        recs = (records("a", [1.0]) + records("b", [1.0]) + records("c", [3.0]))
        matrix = rank_models(recs)
        np.testing.assert_array_equal(matrix.ranks, [[1.5, 1.5, 3.0]])
        assert matrix.ranks[0].sum() == 6.0  # k(k+1)/2

    def test_opposite_orderings_mean(self):
        recs = [
            EvalRecord("s0", "a", smape=1.0, mase=1.0),
            EvalRecord("s0", "b", smape=2.0, mase=1.0),
            EvalRecord("s1", "a", smape=2.0, mase=1.0),
            EvalRecord("s1", "b", smape=1.0, mase=1.0),
        ]
        matrix = rank_models(recs)
        np.testing.assert_array_equal(mean_ranks(matrix), [1.5, 1.5])

    def test_missing_cell(self):
        recs = records("a", [1.0, 2.0]) + records("b", [1.0])
        with pytest.raises(IncompleteGridError):
            rank_models(recs)

    def test_matches_per_series_rankdata(self):
        """Property: each row of the rank matrix is scipy's ranking of that
        series alone, bit for bit, ties included."""
        rng = np.random.default_rng(13)
        for trial in range(300):
            n_series = int(rng.integers(1, 12))
            n_models = int(rng.integers(1, 8))
            if trial % 2:
                table = rng.integers(0, 4, size=(n_series, n_models)) / 4.0
            else:
                table = rng.normal(size=(n_series, n_models))
            recs = [EvalRecord(f"s{i:02d}", f"m{j}", smape=float(table[i, j]),
                               mase=1.0)
                    for j in range(n_models) for i in range(n_series)]
            matrix = rank_models(recs)
            expected = np.array([stats.rankdata(row, method="average")
                                 for row in table])
            assert matrix.ranks.shape == (n_series, n_models), trial
            assert np.array_equal(matrix.ranks, expected), trial

    def test_no_records_gives_empty_matrix(self):
        matrix = rank_models([])
        assert matrix.models == [] and matrix.series == []
        assert matrix.ranks.shape == (0, 0)
