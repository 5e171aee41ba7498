"""Tests for Coloring, balance metrics, and verification."""

import numpy as np
import pytest

from repro import kernels
from repro.coloring import (
    Coloring,
    assert_proper,
    balance_report,
    count_conflicts,
    gamma,
    greedy_coloring,
    is_proper,
    overfull_bins,
    relative_std_dev,
    underfull_bins,
)
from repro.coloring.verify import conflicting_vertices
from repro.resilience import check_invariants


class TestColoring:
    def test_class_sizes(self):
        c = Coloring(np.array([0, 0, 1, 2]), 3)
        assert np.array_equal(c.class_sizes(), [2, 1, 1])

    def test_class_sizes_with_empty_trailing_bin(self):
        c = Coloring(np.array([0, 0]), 3)
        assert np.array_equal(c.class_sizes(), [2, 0, 0])

    def test_color_class(self):
        c = Coloring(np.array([0, 1, 0, 1]), 2)
        assert np.array_equal(c.color_class(1), [1, 3])

    def test_color_class_out_of_range(self):
        c = Coloring(np.array([0]), 1)
        with pytest.raises(ValueError):
            c.color_class(5)

    def test_negative_color_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Coloring(np.array([0, -1]), 2)

    def test_color_beyond_palette_rejected(self):
        with pytest.raises(ValueError):
            Coloring(np.array([0, 5]), 3)

    def test_not_1d_rejected(self):
        with pytest.raises(ValueError):
            Coloring(np.zeros((2, 2), dtype=np.int64), 1)

    def test_with_meta_merges(self):
        c = Coloring(np.array([0]), 1, meta={"a": 1})
        d = c.with_meta(b=2)
        assert d.meta == {"a": 1, "b": 2}
        assert c.meta == {"a": 1}


class TestBalanceMetrics:
    def test_gamma(self):
        assert gamma(10, 4) == 2.5

    def test_gamma_invalid(self):
        with pytest.raises(ValueError):
            gamma(10, 0)
        with pytest.raises(ValueError):
            gamma(-1, 2)

    def test_rsd_perfectly_balanced(self):
        assert relative_std_dev([5, 5, 5]) == 0.0

    def test_rsd_known_value(self):
        # sizes 1, 3: mean 2, population std 1 -> 50%
        assert relative_std_dev([1, 3]) == pytest.approx(50.0)

    def test_rsd_empty_and_zero(self):
        assert relative_std_dev([]) == 0.0
        assert relative_std_dev([0, 0]) == 0.0

    def test_overfull_underfull_partition(self):
        sizes = np.array([10, 2, 4, 4])
        g = 5.0
        assert np.array_equal(overfull_bins(sizes, g), [0])
        assert np.array_equal(underfull_bins(sizes, g), [1, 2, 3])

    def test_exact_gamma_is_neither(self):
        sizes = np.array([5, 5])
        assert overfull_bins(sizes, 5.0).size == 0
        assert underfull_bins(sizes, 5.0).size == 0

    def test_balance_report_fields(self, small_cnr):
        c = greedy_coloring(small_cnr)
        r = balance_report(c)
        assert r.num_colors == c.num_colors
        assert r.max_class_size >= r.min_class_size
        assert r.num_overfull + r.num_underfull <= r.num_colors
        assert r.gamma == pytest.approx(small_cnr.num_vertices / c.num_colors)

    def test_balance_report_row(self):
        c = Coloring(np.array([0, 0, 1]), 2, strategy="x")
        assert balance_report(c).row()[0] == "x"


class TestVerify:
    def test_proper_coloring_accepted(self, petersen):
        c = greedy_coloring(petersen)
        assert is_proper(petersen, c)
        assert_proper(petersen, c)
        assert count_conflicts(petersen, c) == 0

    def test_monochromatic_edge_detected(self, path10):
        colors = np.zeros(10, dtype=np.int64)
        assert not is_proper(path10, colors)
        assert count_conflicts(path10, colors) == 9

    def test_assert_names_edge(self, path10):
        with pytest.raises(AssertionError, match=r"edge \(0, 1\)"):
            assert_proper(path10, np.zeros(10, dtype=np.int64))

    def test_uncolored_vertex_rejected(self, path10):
        colors = np.zeros(10, dtype=np.int64)
        colors[3] = -1
        assert not is_proper(path10, colors)
        with pytest.raises(AssertionError, match="uncolored"):
            assert_proper(path10, colors)

    def test_length_mismatch(self, path10):
        with pytest.raises(ValueError):
            count_conflicts(path10, np.zeros(5, dtype=np.int64))
        with pytest.raises(AssertionError):
            assert_proper(path10, np.zeros(5, dtype=np.int64))

    def test_conflicting_vertices_higher_endpoint(self, path10):
        colors = np.arange(10, dtype=np.int64)
        colors[4] = colors[3]
        out = conflicting_vertices(path10, colors)
        assert np.array_equal(out, [4])

    def test_accepts_raw_array(self, petersen):
        c = greedy_coloring(petersen)
        assert is_proper(petersen, c.colors)

    def test_uncolored_vertices_never_conflict(self, path10):
        """Every check agrees: an edge between uncolored vertices is no
        conflict; the vertices are only reported as uncolored."""
        colors = np.full(10, -1, dtype=np.int64)
        colors[[2, 3]] = 0  # one real conflict among the uncolored
        assert count_conflicts(path10, colors) == 1
        assert kernels.count_monochromatic_edges(path10, colors) == 1
        assert np.array_equal(conflicting_vertices(path10, colors), [3])
        kinds = {v.kind: v.vertices.size for v in check_invariants(path10, colors)}
        assert kinds == {"uncolored": 8, "conflict": 1}
        assert not is_proper(path10, colors)


class TestBalanceReportMinSize:
    def test_min_class_size_not_zero_for_ff(self, small_cnr):
        # regression: np.min(initial=0) used to clamp the reported minimum
        c = greedy_coloring(small_cnr)
        r = balance_report(c)
        assert r.min_class_size == int(c.class_sizes().min())
        assert r.min_class_size >= 1  # FF never leaves an empty class

    def test_min_class_size_empty_coloring(self):
        r = balance_report(Coloring(np.empty(0, dtype=np.int64), 0))
        assert r.min_class_size == 0


class TestEquitable:
    def test_perfectly_balanced(self):
        from repro.coloring.balance import is_equitable, size_spread

        c = Coloring(np.array([0, 1, 0, 1]), 2)
        assert is_equitable(c)
        assert size_spread(c) == 0

    def test_off_by_one_is_equitable(self):
        from repro.coloring.balance import is_equitable

        assert is_equitable(Coloring(np.array([0, 0, 1]), 2))

    def test_off_by_two_is_not(self):
        from repro.coloring.balance import is_equitable, size_spread

        c = Coloring(np.array([0, 0, 0, 1]), 2)
        assert not is_equitable(c)
        assert size_spread(c) == 2

    def test_empty(self):
        from repro.coloring.balance import is_equitable, size_spread

        c = Coloring(np.empty(0, dtype=np.int64), 0)
        assert is_equitable(c)
        assert size_spread(c) == 0

    def test_vff_reaches_near_equitable_on_path(self):
        from repro.coloring import greedy_coloring, shuffle_balance
        from repro.coloring.balance import is_equitable
        from repro.graph import path_graph

        g = path_graph(9)
        out = shuffle_balance(g, greedy_coloring(g))
        assert is_equitable(out)
