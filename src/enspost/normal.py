"""Standard normal CDF Φ (`ndtr`) and quantile Φ⁻¹ (`ndtri`) on numpy alone,
equal bit for bit to SciPy's, which compiles the same Cephes routines.

Both are ports of Cephes (S. L. Moshier): `ndtr` goes through erf for
|a| < 1 and erfc beyond, `ndtri` through one rational approximation around
the median and two in √(−2 log p) for the tails below exp(−2) and above
1 − exp(−2), each evaluated by Horner's rule as `polevl`/`p1evl` do.  Every
operation is the C routine's, in its order.  +, −, ·, /, |·| and √ are
numpy's correctly rounded elementwise operations; exp and log go to the C
library through `math`, because numpy's vectorized exp and log round some
inputs differently.  A 0-d input gives `np.float64`, any other an array of
its shape.  ±inf and nan raise no warning; ndtri is nan outside [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(2**1024)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)

# erfc(x) = exp(-x²)·P(x)/Q(x) on 1 <= x < 8, exp(-x²)·R(x)/S(x) beyond
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x·T(x²)/U(x²) on |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri: |p − 1/2| <= 1/2 − exp(−2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tails, z = √(−2 log p) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# tails, z >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)

_exp = np.frompyfunc(math.exp, 1, 1)
_log = np.frompyfunc(math.log, 1, 1)


def _polevl(x, coef):
    """coef[0]·xᴺ + … + coef[N] by Horner's rule."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """xᴺ + coef[0]·xᴺ⁻¹ + … + coef[N−1] by Horner's rule."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _piecewise(f, x, near, near_coef, far_coef):
    """f(x, *near_coef) where `near`, f(x, *far_coef) elsewhere, each
    evaluated only where it applies."""
    if near.all():
        return f(x, *near_coef)
    out = np.empty_like(x)
    out[near], out[~near] = f(x[near], *near_coef), f(x[~near], *far_coef)
    return out


def _erf(x):
    """Cephes erf(x) on |x| <= 1."""
    xx = x * x
    return x * _polevl(xx, _T) / _p1evl(xx, _U)


def _erfc_ratio(x, p, q):
    return _exp(-x * x).astype(np.float64) * _polevl(x, p) / _p1evl(x, q)


def _erfc(x):
    """Cephes erfc(x) on x >= 1 with x² <= MAXLOG."""
    return _piecewise(_erfc_ratio, x, x < 8.0, (_P, _Q), (_R, _S))


def _tail_ratio(z, p, q):
    return z * _polevl(z, p) / _p1evl(z, q)


def _ndtri_tail(y):
    """Cephes Φ⁻¹(y) for 0 < y <= exp(−2), negated."""
    x = np.sqrt(-2.0 * _log(y).astype(np.float64))
    x0 = x - _log(x).astype(np.float64) / x
    return x0 - _piecewise(_tail_ratio, 1.0 / x, x < 8.0, (_P1, _Q1), (_P2, _Q2))


def _ndtri_centre(y):
    """Cephes Φ⁻¹(y + 1/2) for |y| <= 1/2 − exp(−2)."""
    y2 = y * y
    return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI


def ndtr(a):
    """Standard normal CDF Φ(a), elementwise."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 0:
        return np.float64(ndtr(arr.reshape(1))[0])
    x = arr * _SQRT1_2
    z = np.abs(x)
    # the limits 0 and 1 stand where erfc(|x|) underflows (x² > MAXLOG)
    out = np.where(x > 0, 1.0, 0.0)
    # |x| < 1/√2: (1 + erf(x))/2; up to |x| = 1, erfc(|x|) = 1 − erf(|x|)
    series = z < 1.0
    xs = x[series]
    erf = _erf(xs)
    half = 0.5 * (1.0 - np.abs(erf))
    out[series] = np.where(z[series] < _SQRT1_2, 0.5 + 0.5 * erf,
                           np.where(xs > 0, 1.0 - half, half))
    # beyond, erfc(|x|) by its rational approximations; z is capped at 27
    # (27² > MAXLOG) so that the edge test cannot overflow
    zc = np.minimum(z, 27.0)
    tail = (z >= 1.0) & (-zc * zc >= -_MAXLOG)
    half = 0.5 * _erfc(z[tail])
    out[tail] = np.where(x[tail] > 0, 1.0 - half, half)
    out[np.isnan(x)] = np.nan
    return out


def ndtri(p):
    """Standard normal quantile Φ⁻¹(p), elementwise; nan outside [0, 1]."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim == 0:
        return np.float64(ndtri(arr.reshape(1))[0])
    # the upper tail by symmetry from y = 1 − p
    upper = arr > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - arr, arr)
    out = np.where(arr < 0.5, -np.inf, np.inf)  # kept at p = 0 and p = 1
    centre = y > _EXPM2
    out[centre] = _ndtri_centre(y[centre] - 0.5)
    tail = ~centre & (arr > 0.0) & (arr < 1.0)
    x = _ndtri_tail(y[tail])
    out[tail] = np.where(upper[tail], x, -x)
    out[(arr < 0.0) | (arr > 1.0)] = np.nan
    # the C routine carries a nan through its lower-tail branch, which
    # flips its sign
    nan = np.isnan(arr)
    out[nan] = -arr[nan]
    return out

