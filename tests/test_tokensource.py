import math

import numpy as np
import pytest

from gumbelmark import (
    ToySource,
    entropy_of,
    make_m1,
    make_m2,
    toy_next_dist,
)
from gumbelmark._validation import check_ntp_dist
from gumbelmark.pivotal import _grouped
from gumbelmark.tokensource import least_favorable_atoms

from util import least_favorable


def assert_valid_dist(p):
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) <= 1e-12


class TestMakeM2:
    def test_symmetric_binary(self):
        assert np.allclose(make_m2(0.5, 2), [0.5, 0.5])

    def test_flat_tail(self):
        p = make_m2(0.4, 5)
        assert np.allclose(p, [0.6, 0.1, 0.1, 0.1, 0.1])
        assert_valid_dist(p)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            make_m2(0.0, 3)
        with pytest.raises(ValueError):
            make_m2(1.0, 3)


class _FixedUniformRng:
    """Stub generator returning preset values for uniform() calls."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, lo, hi):
        return self.values.pop(0)


class TestMakeM1:
    def test_hand_computed_tail(self):
        # a = 1, b = 0.05: tail weights 1/1.05 and 1/2.05 before normalization
        rng = _FixedUniformRng([1.0, 0.05])
        p = make_m1(0.4, 3, rng)
        c = 1 / 1.05 + 1 / 2.05
        assert p[0] == 0.6
        assert np.allclose(p[1:], [0.4 * (1 / 1.05) / c, 0.4 * (1 / 2.05) / c])
        assert_valid_dist(p)

    def test_top_entry_and_decreasing_tail(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = make_m1(0.25, 30, rng)
            assert p[0] == 0.75
            assert p.max() == 0.75
            assert np.all(np.diff(p[1:]) < 0)
            assert_valid_dist(p)


def list_least_favorable(delta):
    """floor(1/(1 - delta)) atoms of 1 - delta and the remainder above 1e-15,
    one list entry per atom: the reference for the closed form."""
    top = 1.0 - delta
    k = math.floor(1.0 / top)
    rem = 1.0 - k * top
    return np.array([top] * k + ([rem] if rem > 1e-15 else []))


class TestLeastFavorable:
    def test_examples(self):
        assert np.allclose(least_favorable(0.4), [0.6, 0.4])
        assert np.allclose(least_favorable(0.5), [0.5, 0.5])
        assert np.allclose(least_favorable(0.7), [0.3, 0.3, 0.3, 0.1])

    def test_invariants_on_grid(self):
        for delta in np.linspace(0.01, 0.99, 197):
            p = least_favorable(delta)
            assert_valid_dist(p)
            assert p.max() == 1.0 - delta
            k = math.floor(1.0 / (1.0 - delta))
            assert p.size in (k, k + 1)

    def test_atoms_match_the_atom_list(self):
        # the grid, the exact reciprocals 1 - 1/k and their float neighbours,
        # where 1/(1 - delta) rounds across an integer
        edges = 1.0 - 1.0 / np.arange(2.0, 2000.0)
        deltas = np.concatenate([np.linspace(1e-6, 0.9999, 1999), edges,
                                 np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        for delta in deltas:
            want = list_least_favorable(delta)
            assert np.array_equal(least_favorable(delta), want), delta
            vals, counts = least_favorable_atoms(delta)
            want_vals, want_counts = _grouped(want)
            assert np.array_equal(vals, want_vals) and np.array_equal(counts, want_counts), delta
            assert counts.dtype == want_counts.dtype == float

    def test_atoms_near_one_in_closed_form(self):
        # floor(1/(1 - delta)) ~ 1e10 atoms: least_favorable would need ~80 GB
        delta = 1.0 - 1e-10
        top = 1.0 - delta
        k = math.floor(1.0 / top)
        vals, counts = least_favorable_atoms(delta)
        assert vals.tolist() == [1.0 - k * top, top] and counts.tolist() == [1.0, k]
        assert abs((vals * counts).sum() - 1.0) <= 1e-12


class TestDeltaEntropy:
    def test_entropy_values(self):
        assert entropy_of([1.0, 0.0]) == 0.0
        assert entropy_of([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_entropy_lower_bound(self):
        # Ent(P) >= delta log(1/delta) for delta < 1/2
        rng = np.random.default_rng(3)
        for _ in range(100):
            delta = rng.uniform(0.01, 0.49)
            v = int(rng.integers(2, 40))
            p = make_m2(delta, v) if rng.random() < 0.5 else make_m1(delta, v, rng)
            assert entropy_of(p) >= delta * math.log(1.0 / delta) - 1e-12

    def test_entropy_singularity_relation(self):
        # delta log(1/delta) <= Ent <= delta/c + delta log(1/delta) + delta log(V-1), c = 0.7
        rng = np.random.default_rng(11)
        for _ in range(200):
            delta = rng.uniform(0.005, 0.3)
            v = int(rng.integers(2, 101))
            p = make_m2(delta, v) if rng.random() < 0.5 else make_m1(delta, v, rng)
            ent = entropy_of(p)
            lo = delta * math.log(1.0 / delta)
            hi = delta / 0.7 + lo + delta * math.log(max(v - 1, 1))
            assert lo - 1e-12 <= ent <= hi + 1e-12


class TestToySource:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToySource(2, (0.0, 0.5), 1)
        with pytest.raises(ValueError):
            ToySource(2, (0.6, 0.5), 1)
        with pytest.raises(ValueError):
            ToySource(1, (0.1, 0.2), 1)

    def test_deterministic(self):
        src = ToySource(17, (0.2, 0.5), seed=99)
        a = toy_next_dist(src, [3, 1, 4])
        b = toy_next_dist(src, [0, 0, 4])  # same last token
        assert np.array_equal(a, b)

    def test_delta_in_range(self):
        src = ToySource(11, (0.2, 0.5), seed=5)
        for last in range(50):
            d = 1.0 - toy_next_dist(src, [last]).max()
            assert 0.2 <= d <= 0.5

    def test_pinned_delta(self):
        src = ToySource(9, (0.3, 0.3), seed=1)
        for last in range(30):
            p = toy_next_dist(src, [last])
            assert p.max() == pytest.approx(0.7, abs=1e-15)
            check_ntp_dist(p)
