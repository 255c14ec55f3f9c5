"""emos.ndtr (Φ) and emos.ndtri (Φ⁻¹) against scipy.special, to a tolerance.

scipy.special compiles the Cephes routines, an implementation independent
of the standard library's `math.erfc` and `statistics.NormalDist` that
`emos` uses, so it is the oracle: every value must agree within the bounds
below, for array input and for each value given alone.

- Φ: relative 1e-14 + 2x²ε, with ε = 2⁻⁵² (1e-14 at x = 0, 6.5e-13 at
  |x| = 38), and absolute down to the smallest normal float, 2.2e-308.
  Each side rounds x/√2 by up to ε relative, and in the left tail the
  relative slope of Φ is about x², so each carries a relative error of up
  to x²ε that no implementation can avoid.  On 4·10⁶ points of [−38, 38]
  the largest difference is 0.70 of this bound (4.3e-13 relative at
  x = −37.3); on 10⁶ N(0, 3²) values it is 3.9e-14, and 45 % of them
  differ at all.  Below x = −37.68 Cephes flushes Φ to 0 where erfc still
  gives a subnormal, up to 5.9e-311.
- Φ⁻¹: absolute 1e-14, and relative 1e-14 where |Φ⁻¹(p)| > 1.  The
  largest difference is 1.8e-15 over every midpoint level up to m = 500,
  and 1.1e-15 relative on levels down to 1e-300.
"""

import math

import numpy as np
import pytest
import scipy.special as sc

from enspost import emos

# a RuntimeWarning from ±inf or nan fails the test
pytestmark = pytest.mark.filterwarnings("error")

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
MAXLOG = 7.09782712893383996843e2
EXPM2 = 0.13533528323661269189


def assert_close(ours, oracle, tol):
    """Each value of `ours` within `tol` of `oracle`, nan where it is nan."""
    ours, oracle = np.asarray(ours), np.asarray(oracle)
    assert ours.dtype == np.float64 and ours.shape == oracle.shape
    nan = np.isnan(oracle)
    assert np.array_equal(np.isnan(ours), nan)
    bad = ~nan & ~(np.abs(ours - oracle) <= tol)
    assert not bad.any(), (ours[bad][:5], oracle[bad][:5])


def phi_tol(x, oracle):
    """The bound on Φ at x: see the module docstring."""
    x = np.clip(np.abs(x), 0.0, 40.0)  # beyond, both are exactly 0 or 1
    return (1e-14 + 2.0 * x * x * EPS) * np.abs(oracle) + TINY


def ndtri_tol(oracle):
    return 1e-14 * np.maximum(np.abs(oracle), 1.0)


def assert_matches(x, func):
    """emos.`func` agrees with scipy.special.`func` on x as an array and on
    each value of x alone."""
    ours, oracle = getattr(emos, func), getattr(sc, func)
    x = np.asarray(x, dtype=np.float64)
    for got, flat in ((ours(x), x), (np.array([ours(v) for v in x.ravel()]), x.ravel())):
        want = oracle(flat)
        assert_close(got, want, phi_tol(flat, want) if func == "ndtr" else ndtri_tol(want))


def neighbours(value, ulps=64):
    """value and its neighbours up to `ulps` representable steps either side."""
    below, above = [np.float64(value)], [np.float64(value)]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


class TestNdtr:
    def test_any_float(self):
        """Magnitudes log-uniform from the subnormals to the largest float,
        of either sign, N(0, 3²) values, ±inf and nan."""
        rng = np.random.default_rng(0)
        sign = rng.choice([-1.0, 1.0], 1000)
        x = np.concatenate([sign * 10.0 ** rng.uniform(-320.0, 308.0, 1000),
                            rng.normal(0.0, 3.0, 997), [np.inf, -np.inf, np.nan]])
        assert_matches(x.reshape(50, 40), "ndtr")

    def test_every_branch_range(self):
        """A grid over [−40, 40], which covers every Cephes branch and both
        limits."""
        assert_matches(np.linspace(-40.0, 40.0, 40_001), "ndtr")

    # Cephes switches its method where a·(1/√2) crosses 1/√2 (erf vs erfc),
    # 1 (erfc by 1 − erf vs P/Q) and 8 (P/Q vs R/S), and flushes to 0 beyond
    # a² = 2·MAXLOG: the bound holds on both sides of each switch
    @pytest.mark.parametrize("edge", [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                                      math.sqrt(2.0 * MAXLOG)],
                             ids=["x=1/sqrt2", "x=1", "x=8", "maxlog"])
    def test_branch_boundaries(self, edge):
        a = neighbours(edge)
        assert_matches(np.concatenate([a, -a]), "ndtr")

    def test_special_values(self):
        x = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324,
                      np.finfo(float).max, -np.finfo(float).max])
        assert_matches(x, "ndtr")
        np.testing.assert_array_equal(emos.ndtr(x), sc.ndtr(x))


class TestNdtri:
    def test_levels(self):
        """Levels uniform on (0, 1) and log-uniform down to 1e-300 in
        either tail."""
        rng = np.random.default_rng(1)
        tiny = 10.0 ** rng.uniform(-300.0, 0.0, 1000)
        p = np.concatenate([rng.uniform(0.0, 1.0, 1000), tiny, 1.0 - tiny[tiny > 1e-16]])
        assert_matches(p[(p > 0.0) & (p < 1.0)], "ndtri")

    # Cephes's centre meets its tails at exp(−2) and 1 − exp(−2); inside
    # the tails √(−2 log y) crosses 8 at y = exp(−32)
    @pytest.mark.parametrize("edge", [EXPM2, 1.0 - EXPM2, math.exp(-32.0),
                                      1.0 - math.exp(-32.0)],
                             ids=["exp-2", "1-exp-2", "exp-32", "1-exp-32"])
    def test_branch_boundaries(self, edge):
        assert_matches(neighbours(edge), "ndtri")

    def test_every_midpoint_level(self):
        """The levels (2j − 1)/(2m) of every quantile sample up to m = 500,
        within 1e-14 absolute."""
        levels = np.concatenate([(2 * np.arange(1, m + 1) - 1) / (2 * m)
                                 for m in range(1, 501)])
        assert_close(emos.ndtri(levels), sc.ndtri(levels), 1e-14)


class TestTypes:
    @pytest.mark.parametrize("func", [emos.ndtr, emos.ndtri])
    @pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.array(0.25), 0])
    def test_scalar_gives_float64(self, func, value):
        if func is emos.ndtri and value == 0:
            value = 0.5  # Φ⁻¹ is defined on (0, 1) only
        assert type(func(value)) is np.float64

    @pytest.mark.parametrize("func", [emos.ndtr, emos.ndtri])
    @pytest.mark.parametrize("shape", [(0,), (1,), (3,), (2, 3), (2, 1, 4)])
    def test_array_keeps_its_shape(self, func, shape):
        out = func(np.full(shape, 0.25))
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
