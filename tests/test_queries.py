import math

import numpy as np
import pytest

from nonneg_dp.queries import (
    Dataset,
    QueryDescriptor,
    QueryKind,
    evaluate_query,
    load_records,
    relative_bound_K,
    sensitivity,
)

MEAN = QueryDescriptor(QueryKind.BOUNDED_MEAN)
SUM = QueryDescriptor(QueryKind.BOUNDED_SUM)


def count_above(threshold):
    return QueryDescriptor(QueryKind.COUNT_ABOVE_THRESHOLD, threshold=threshold)


class TestDataset:
    def test_rejects_record_outside_bounds(self):
        with pytest.raises(ValueError, match="outside declared bounds"):
            Dataset((0.2, 1.4), 0.0, 1.0)

    def test_open_lower_bound_excludes_endpoint(self):
        with pytest.raises(ValueError, match="outside declared bounds"):
            Dataset((0.0, 0.5), 0.0, 1.0, lower_open=True)
        Dataset((0.0, 0.5), 0.0, 1.0)  # closed bound admits it

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Dataset((0.5,), 1.0, 0.0)

    def test_replace_produces_adjacent_dataset(self):
        d = Dataset((0.2, 0.4, 0.6), 0.0, 1.0)
        other = d.replace(1, 0.9)
        assert other.records == (0.2, 0.9, 0.6)


class TestQueryDescriptor:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            count_above(threshold)

    def test_accepts_negative_threshold(self):
        d = Dataset((0.2, 0.4), 0.0, 1.0)
        assert evaluate_query(count_above(-1.0), d) == 2.0


class TestEvaluateQuery:
    def test_mean(self):
        d = Dataset((0.2, 0.4, 0.6), 0.0, 1.0, lower_open=True)
        assert evaluate_query(MEAN, d) == pytest.approx(0.4, abs=1e-15)

    def test_count_above_threshold(self):
        d = Dataset((0.2, 0.4, 0.6), 0.0, 1.0)
        assert evaluate_query(count_above(0.5), d) == 1.0

    def test_sum(self):
        d = Dataset((0.2, 0.4, 0.6), 0.0, 1.0)
        assert evaluate_query(SUM, d) == pytest.approx(1.2, abs=1e-15)

    def test_mean_of_empty_dataset_is_undefined(self):
        with pytest.raises(ValueError, match="undefined query"):
            evaluate_query(MEAN, Dataset((), 0.0, 1.0))


class TestSensitivity:
    def test_mean_bounds_and_size(self):
        assert sensitivity(MEAN, (0.0, 1.0), 10) == pytest.approx(0.1)

    def test_sum_is_range_width(self):
        assert sensitivity(SUM, (0.0, 1.0), 7) == 1.0

    def test_count_is_one(self):
        assert sensitivity(count_above(0.5), (-3.0, 9.0), 100) == 1.0

    def test_rejects_empty_dataset_size(self):
        with pytest.raises(ValueError):
            sensitivity(MEAN, (0.0, 1.0), 0)

    def test_scales_linearly_in_range_width(self):
        widths = np.array([0.5, 1.0, 2.0, 4.0])
        sums = np.array([sensitivity(SUM, (0.0, w), 5) for w in widths])
        means = np.array([sensitivity(MEAN, (0.0, w), 5) for w in widths])
        np.testing.assert_allclose(sums / widths, 1.0, rtol=1e-15)
        np.testing.assert_allclose(means / widths, 0.2, rtol=1e-15)


class TestBoundsCheck:
    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.nan), (2.0, 1.0)])
    @pytest.mark.parametrize("qd", [MEAN, SUM, count_above(0.5)], ids=["mean", "sum", "count"])
    def test_bounds_out_of_order_or_nan_are_rejected(self, qd, bounds):
        # nan bounds returned nan from both functions.
        for func in (sensitivity, relative_bound_K):
            with pytest.raises(ValueError, match="lower <= upper"):
                func(qd, bounds, 3)

    def test_size_below_one_is_rejected_by_both(self):
        for func in (sensitivity, relative_bound_K):
            with pytest.raises(ValueError, match="at least 1"):
                func(MEAN, (1.0, 2.0), 0)


class TestRelativeBound:
    def test_mean_with_positive_floor(self):
        assert relative_bound_K(MEAN, (0.1, 1.0), 10) == (1 - 0.1) / (0.1 * 10)
        assert relative_bound_K(MEAN, (0.01, 1.0), 5) == (1 - 0.01) / (0.01 * 5)

    def test_zero_lower_bound_is_unbounded(self):
        assert relative_bound_K(MEAN, (0.0, 1.0), 10) == math.inf

    def test_count_without_floor_is_unbounded(self):
        assert relative_bound_K(count_above(0.5), (0.1, 1.0), 10) == math.inf

    def test_count_with_floor(self):
        qd = QueryDescriptor(QueryKind.COUNT_ABOVE_THRESHOLD, threshold=0.5, count_floor=4)
        assert relative_bound_K(qd, (0.0, 1.0), 10) == 0.25

    def test_matches_brute_force_maximization(self):
        # exhaust replace-one pairs on a step-0.01 value grid, fillers at three levels
        lower, upper, n = 0.5, 1.0, 4
        grid = np.round(np.arange(lower, upper + 1e-9, 0.01), 10)
        best = 0.0
        for filler in (lower, 0.75, upper):
            others = filler * (n - 1)
            for old in grid:
                for new in grid:
                    q_old = (others + old) / n
                    q_new = (others + new) / n
                    best = max(best, abs(q_old - q_new) / min(q_old, q_new))
        bound = relative_bound_K(MEAN, (lower, upper), n)
        assert bound == pytest.approx(0.25, abs=1e-12)
        assert best <= bound + 1e-12
        assert best == pytest.approx(bound, abs=1e-9)

    def test_monotone_in_floor_and_size(self):
        lowers = np.arange(0.05, 0.55, 0.05)
        for n in (2, 10, 50):
            ks = [relative_bound_K(MEAN, (l, 1.0), n) for l in lowers]
            assert all(a > b for a, b in zip(ks, ks[1:]))
        for l in (0.05, 0.2, 0.5):
            ks = [relative_bound_K(MEAN, (l, 1.0), n) for n in range(2, 51)]
            assert all(a > b for a, b in zip(ks, ks[1:]))


class TestAdjacentPairProperties:
    def test_sensitivity_and_ratio_bounds_hold_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        lower, upper, n = 0.1, 1.0, 8
        bounds = (lower, upper)
        queries = [MEAN, SUM, count_above(0.5)]
        deltas = {id(qd): sensitivity(qd, bounds, n) for qd in queries}
        kappas = {id(qd): relative_bound_K(qd, bounds, n) for qd in queries}
        for _ in range(1000):
            records = tuple(rng.uniform(lower, upper, size=n))
            d = Dataset(records, lower, upper)
            index = int(rng.integers(n))
            other = d.replace(index, float(rng.uniform(lower, upper)))
            for qd in queries:
                a, b = evaluate_query(qd, d), evaluate_query(qd, other)
                assert abs(a - b) <= deltas[id(qd)]
                k = kappas[id(qd)]
                if math.isfinite(k) and min(a, b) > 0:
                    assert abs(a - b) / min(a, b) <= k


class TestLoadRecords:
    def test_reads_newline_delimited_decimals(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("0.25\n\n0.5\n1\n")
        assert load_records(path) == (0.25, 0.5, 1.0)

    def test_reports_bad_line(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("0.25\nnot-a-number\n")
        with pytest.raises(ValueError, match="not a decimal value"):
            load_records(path)


class TestCountFloor:
    def test_count_below_floor_is_rejected(self):
        qd = QueryDescriptor(QueryKind.COUNT_ABOVE_THRESHOLD, threshold=0.0, count_floor=5)
        with pytest.raises(ValueError, match="count_floor"):
            evaluate_query(qd, Dataset((0.5, 0.25), 0.0, 1.0))

    def test_count_at_floor_is_kept(self):
        qd = QueryDescriptor(QueryKind.COUNT_ABOVE_THRESHOLD, threshold=0.3, count_floor=2)
        assert evaluate_query(qd, Dataset((0.25, 0.5, 0.75), 0.0, 1.0)) == 2.0
