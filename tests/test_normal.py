"""enspost.normal against scipy.special, bit for bit.

scipy.special compiles the Cephes routines that `normal` ports, so it is
the independent oracle: every value must have the same bits, nan and the
sign of zero included, for array input and for each value given alone.
"""

import math

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from enspost import normal

# a RuntimeWarning from ±inf, nan or an out-of-range level fails the test
pytestmark = pytest.mark.filterwarnings("error")

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
LEVEL = st.floats(0.0, 1.0, allow_subnormal=True)
MAXLOG = 7.09782712893383996843e2
EXPM2 = 0.13533528323661269189


def assert_same_bits(ours, oracle):
    ours, oracle = np.asarray(ours), np.asarray(oracle)
    assert ours.dtype == np.float64 and ours.shape == oracle.shape
    same = (ours == oracle) | (np.isnan(ours) & np.isnan(oracle))
    assert same.all(), (ours[~same][:5], oracle[~same][:5])
    assert np.array_equal(np.signbit(ours), np.signbit(oracle))


def assert_matches(ours, oracle, x):
    """`ours` equals `oracle` on x as an array and on each value of x alone
    (one call per value: the hypothesis tests run without a deadline)."""
    x = np.asarray(x, dtype=np.float64)
    assert_same_bits(ours(x), oracle(x))
    assert_same_bits([ours(v) for v in x.ravel()], oracle(x.ravel()))


def neighbours(value, ulps=64):
    """value and its neighbours up to `ulps` representable steps either side."""
    below, above = [np.float64(value)], [np.float64(value)]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


class TestNdtr:
    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=40),
                  elements=ANY_FLOAT))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, x):
        assert_matches(normal.ndtr, sc.ndtr, x)

    @given(arrays(np.float64, array_shapes(max_dims=1, max_side=60),
                  elements=st.floats(-40.0, 40.0, allow_subnormal=True)))
    @settings(max_examples=300, deadline=None)
    def test_every_branch_range(self, x):
        assert_matches(normal.ndtr, sc.ndtr, x)

    # a·(1/√2) crosses 1/√2 (erf vs erfc), 1 (erfc by 1 − erf vs P/Q) and
    # 8 (P/Q vs R/S); at a² = 2·MAXLOG erfc is set to 0 before exp underflows
    @pytest.mark.parametrize("edge", [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                                      math.sqrt(2.0 * MAXLOG)],
                             ids=["x=1/sqrt2", "x=1", "x=8", "maxlog"])
    def test_branch_boundaries(self, edge):
        a = neighbours(edge)
        assert_matches(normal.ndtr, sc.ndtr, np.concatenate([a, -a]))

    def test_underflow_edge_is_inside_the_neighbourhood(self):
        tail = normal.ndtr(-neighbours(math.sqrt(2.0 * MAXLOG)))
        assert (tail == 0.0).any() and (tail > 0.0).any()

    def test_special_values(self):
        x = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324,
             np.finfo(float).max, -np.finfo(float).max]
        assert_matches(normal.ndtr, sc.ndtr, x)


class TestNdtri:
    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=40),
                  elements=LEVEL))
    @settings(max_examples=300, deadline=None)
    def test_levels(self, p):
        assert_matches(normal.ndtri, sc.ndtri, p)

    @given(arrays(np.float64, array_shapes(max_dims=1, max_side=40), elements=ANY_FLOAT))
    @settings(max_examples=200, deadline=None)
    def test_any_float(self, p):
        assert_matches(normal.ndtri, sc.ndtri, p)

    # the centre meets the tails at exp(−2) and 1 − exp(−2); inside the
    # tails √(−2 log y) crosses 8 at y = exp(−32)
    @pytest.mark.parametrize("edge", [EXPM2, 1.0 - EXPM2, math.exp(-32.0),
                                      1.0 - math.exp(-32.0), 0.0, 1.0],
                             ids=["exp-2", "1-exp-2", "exp-32", "1-exp-32", "zero", "one"])
    def test_branch_boundaries(self, edge):
        assert_matches(normal.ndtri, sc.ndtri, neighbours(edge))

    def test_outside_the_unit_interval_is_nan(self):
        p = [-0.0, -5e-324, -1.0, np.nextafter(1.0, 2.0), 2.0, np.inf, -np.inf, np.nan, -np.nan]
        assert_matches(normal.ndtri, sc.ndtri, p)
        assert np.isnan(normal.ndtri(np.array(p[1:]))).all()

    def test_every_midpoint_level(self):
        """The levels (2j − 1)/(2m) of every quantile sample up to m = 500."""
        levels = np.concatenate([(2 * np.arange(1, m + 1) - 1) / (2 * m)
                                 for m in range(1, 501)])
        assert_same_bits(normal.ndtri(levels), sc.ndtri(levels))


class TestTypes:
    @pytest.mark.parametrize("func", [normal.ndtr, normal.ndtri])
    @pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.array(0.25), 0])
    def test_scalar_gives_float64(self, func, value):
        assert type(func(value)) is np.float64

    @pytest.mark.parametrize("func", [normal.ndtr, normal.ndtri])
    @pytest.mark.parametrize("shape", [(0,), (1,), (3,), (2, 3), (2, 1, 4)])
    def test_array_keeps_its_shape(self, func, shape):
        out = func(np.full(shape, 0.25))
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
