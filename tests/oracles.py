"""Independent reference computations shared by the test modules.

These deliberately take different computational routes from the library
code they check: quadrature instead of closed forms, dense covariance-side
linear algebra instead of sparse precision-side identities, a
point-by-point refinement loop instead of whole-array scans, a
closed-form mixture CRPS instead of the score of a quantile sample, a
derivative-free simplex search instead of batched Newton steps, a
scan over every case instead of the table's date and station indexes, a
left-to-right fold of Python additions instead of a cumulative sum,
mixture means a + b·f̄ in Python floats one site at a time instead of
broadcast arrays,
one `locate` per query point instead of one per distinct point, a
sum over the union pattern instead of direct band-storage positions, and
an N × N dominance matrix instead of packed prefix bits, one site at a
time instead of one (S, m) rank array per day, SciPy's pairwise
distances of the raw members instead of centred Gram blocks, and FEM
assembly one triangle at a time instead of whole-array operations.
The last two helpers, dense-design Gaussian conditioning of a GMRF and a
sparse-matrix triplet dump, are used only by the tests.
"""

import datetime as dt
import functools
import math
import operator

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.spatial import ConvexHull
from scipy.spatial.distance import pdist
from scipy.special import ndtr, ndtri

from enspost import data, emos, memos, mesh, spde


def crps_by_quadrature(mu, sigma, y, points_per_side=40_000):
    """Trapezoidal integration of ∫(F(x) − 1{x≥y})² dx for a Gaussian F,
    split at the integrand's jump at x = y."""
    lo = min(mu - 12.0 * sigma, y - 2.0 * sigma)
    hi = max(mu + 12.0 * sigma, y + 2.0 * sigma)
    left = np.linspace(lo, y, points_per_side)
    right = np.linspace(y, hi, points_per_side)
    f_left = ndtr((left - mu) / sigma) ** 2
    f_right = (ndtr((right - mu) / sigma) - 1.0) ** 2
    return np.trapezoid(f_left, left) + np.trapezoid(f_right, right)


def crps_empirical_naive(sample, y: float) -> float:
    """Quadratic-cost double sum (1/N)Σ|x_i−y| − (1/(2N²))ΣΣ|x_i−x_j|; the
    independent cross-check of `verify.crps_empirical`."""
    x = np.asarray(sample, dtype=float)
    n = len(x)
    if n == 0:
        raise ValueError("empty forecast sample")
    return float(np.mean(np.abs(x - y)) - np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n))


def _normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def _expected_abs(mean, var):
    """E|X| for X ~ N(mean, var): A(mean, var) of Grimit et al. (2006)."""
    sd = np.sqrt(var)
    t = mean / sd
    return 2.0 * sd * _normal_pdf(t) + mean * (2.0 * ndtr(t) - 1.0)


def crps_gaussian_mixture(weights, mu, sigma, y) -> float:
    """Closed-form CRPS of Σ wᵢ N(μᵢ, σᵢ²) at y (Grimit et al. 2006, QJRMS):
    Σ wᵢ A(y−μᵢ, σᵢ²) − ½ ΣΣ wᵢwⱼ A(μᵢ−μⱼ, σᵢ²+σⱼ²), A(μ, σ²) = E|N(μ, σ²)|."""
    w, mu, var = (np.asarray(v, dtype=float) for v in (weights, mu, np.square(sigma)))
    spread = _expected_abs(mu[:, None] - mu[None, :], var[:, None] + var[None, :])
    return float(w @ _expected_abs(y - mu, var) - 0.5 * w @ spread @ w)


def midpoint_quantile_w1(m: int) -> float:
    """Wasserstein-1 distance between N(0, 1) and the uniform distribution on
    its m quantiles z_j at levels (2j−1)/(2m), in closed form.

    Quantile j stands for the probability slice between a_j = Φ⁻¹((j−1)/m)
    and b_j = Φ⁻¹(j/m), so W₁ = Σ_j ∫_{a_j}^{b_j} |x − z_j| φ(x) dx.  With
    ∫ x φ(x) dx = −φ(x) one slice is
    2φ(z_j) − φ(a_j) − φ(b_j) + z_j (2Φ(z_j) − Φ(a_j) − Φ(b_j)), and the last
    term vanishes because Φ(z_j) is the slice's middle level.  Each inner
    edge bounds two slices and φ(±∞) = 0, so
    W₁ = 2 Σ_j φ(z_j) − 2 Σ_{k=1}^{m−1} φ(Φ⁻¹(k/m))."""
    z = ndtri((2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m))
    edges = ndtri(np.arange(1, m) / m)
    return float(2.0 * _normal_pdf(z).sum() - 2.0 * _normal_pdf(edges).sum())


def emos_fit_nelder_mead(training) -> "emos.EmosParams":
    """Minimum-CRPS (a, b, σ) by scalar Nelder–Mead over (a, b, log σ) from
    the ordinary-least-squares start, σ clamped at SIGMA_FLOOR; constant-f̄
    windows fix b = 0.  A simplex that has collapsed can stall short of
    the minimum, so the search restarts from its own result, with a fresh
    simplex, until the mean CRPS stops falling, at most five times.
    Returns the last point whether or not the optimizer reports
    convergence."""
    fbar = np.asarray(training.fbar, dtype=float)
    y = np.asarray(training.y, dtype=float)
    var_f = float(np.var(fbar))
    degenerate = var_f < 1e-12
    if degenerate:
        a0, b0 = float(np.mean(y)), 0.0
    else:
        b0 = float(np.cov(fbar, y, bias=True)[0, 1] / var_f)
        a0 = float(np.mean(y) - b0 * np.mean(fbar))
    s0 = max(float(np.std(y - a0 - b0 * fbar)), 10 * emos.SIGMA_FLOOR)

    def objective(x):
        a, b, logs = (x[0], 0.0, x[1]) if degenerate else x
        sigma = max(math.exp(logs), emos.SIGMA_FLOOR)
        return float(np.mean(emos.crps_gaussian(a + b * fbar, sigma, y)))

    def search(x0):
        return minimize(objective, x0, method="Nelder-Mead",
                        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000, "maxfev": 10000})

    res = search(np.array([a0, math.log(s0)] if degenerate else [a0, b0, math.log(s0)]))
    for _ in range(5):
        again = search(res.x)
        if not again.fun < res.fun:
            break
        res = again
    a, b, logs = (res.x[0], 0.0, res.x[1]) if degenerate else res.x
    return emos.EmosParams(float(a), float(b), max(math.exp(logs), emos.SIGMA_FLOOR))


def fbar_fold(members) -> float:
    """f̄ as a left-to-right fold of Python float additions over the m
    members, divided by m: one rounding per addition, no compensation."""
    return functools.reduce(operator.add, map(float, members)) / len(members)


def mixture_means(a, b, members) -> list:
    """The (n, S) means a_i(s) + b_i(s)·f̄(s) of a Gaussian mixture's
    components, given their (n, S) a and b and the (S, m) raw members, as
    Python floats, one component and site at a time, with f̄ by
    `fbar_fold`."""
    fbar = [fbar_fold(row) for row in members]
    return [[float(a_s) + float(b_s) * f for a_s, b_s, f in zip(row_a, row_b, fbar)]
            for row_a, row_b in zip(a, b)]


def rolling_window_scan(table, valid_date, length=25, mode="global", station=None,
                        min_cases=10) -> "data.TrainingSet":
    """`data.rolling_window` by scanning every row of the table, with f̄
    from `fbar_fold`: global mode keeps the observed cases of the `length`
    calendar days before the valid date; local mode keeps the station's
    `length` most recent observed dates before it."""
    if length < 1:
        raise ValueError("window length must be >= 1")
    if mode not in ("global", "local"):
        raise ValueError(f"unknown window mode {mode!r}")

    cases = [(table.dates[d], table.stations[s], members, y) for d, s, members, y in zip(
        table.day.tolist(), table.station.tolist(), table.members.tolist(), table.obs.tolist())
        if not math.isnan(y)]
    if mode == "global":
        start = valid_date - dt.timedelta(days=length)
        selected = [c for c in cases if start <= c[0] < valid_date]
        label = f"global[{start.isoformat()}..{(valid_date - dt.timedelta(days=1)).isoformat()}]"
    else:
        if station is None:
            raise ValueError("local mode requires a station id")
        if station not in table.stations:
            raise ValueError(f"unknown station {station!r}")
        observed = sorted((c[0] for c in cases if c[1] == station and c[0] < valid_date),
                          reverse=True)
        keep = set(observed[:length])
        selected = [c for c in cases if c[1] == station and c[0] in keep]
        label = f"local[{station}, {len(keep)} dates]"

    if len(selected) < min_cases:
        raise ValueError(
            f"insufficient training data: {len(selected)} cases before "
            f"{valid_date.isoformat()} (minimum {min_cases})"
        )
    selected.sort(key=lambda c: (c[0], c[1]))
    return data.TrainingSet(
        stations=[c[1] for c in selected],
        dates=[c[0] for c in selected],
        fbar=np.array([fbar_fold(c[2]) for c in selected]),
        y=np.array([c[3] for c in selected]),
        xy=np.array([table.xy[table.stations.index(c[1])] for c in selected]).reshape(-1, 2),
        window=label,
    )


def dense_log_marginal(theta, training, msh, ops, priors, alpha=1):
    """Covariance-side oracle: log N(y; 0, X Σ_prior Xᵀ + σ²I) with dense
    linear algebra."""
    layout = memos.build_design(training, msh)
    X = layout.X.toarray()
    K = msh.n_vertices
    q_a = spde.precision(ops, theta.kappa_a, theta.tau_a, alpha).Q.toarray()
    q_b = spde.precision(ops, theta.kappa_b, theta.tau_b, alpha).Q.toarray()
    Sig = np.zeros((layout.dim, layout.dim))
    Sig[0, 0] = Sig[1, 1] = priors.v_fix
    Sig[2 : 2 + K, 2 : 2 + K] = np.linalg.inv(q_a)
    Sig[2 + K :, 2 + K :] = np.linalg.inv(q_b)
    y = np.asarray(training.y)
    cov = X @ Sig @ X.T + theta.sigma**2 * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(cov)
    return -0.5 * (len(y) * math.log(2 * math.pi) + logdet + y @ np.linalg.solve(cov, y))


def triangle_min_angle(pts: np.ndarray) -> float:
    """Smallest interior angle of one triangle in degrees."""
    angles = []
    for i in range(3):
        u = pts[(i + 1) % 3] - pts[i]
        v = pts[(i + 2) % 3] - pts[i]
        cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(min(angles))


def _segment_crossing(g, c, va, vb) -> bool:
    d1 = mesh._cross2(c - g, va - g)
    d2 = mesh._cross2(c - g, vb - g)
    d3 = mesh._cross2(vb - va, g - va)
    d4 = mesh._cross2(vb - va, c - va)
    return (d1 * d2 <= 0) and (d3 * d4 <= 0)


def ruppert_reference(sites, min_angle=20.0, node_budget_factor=10):
    """Scalar Ruppert refinement: the loop `mesh.build_mesh` vectorizes,
    one segment, vertex and triangle at a time.  Same decisions, same order,
    same errors; input validation is left to `build_mesh`, and the initial
    hull segments, Delaunay triangulation and circumcenter are the library's."""
    tol = mesh._DEDUP_TOL_KM
    kept: list = []
    for p in np.asarray(sites, dtype=float):
        if not any(np.hypot(*(p - q)) <= tol for q in kept):
            kept.append(p)
    points = np.array(kept)
    hull = ConvexHull(points)
    hull_eq = hull.equations
    budget = node_budget_factor * len(points)
    pts = [p for p in points]
    segments = [tuple(seg) for seg in mesh._hull_segments(points, hull.vertices)]

    def encroaches(p, seg, arr):
        u, v = arr[seg[0]], arr[seg[1]]
        mid = 0.5 * (u + v)
        r2 = 0.25 * float((v - u) @ (v - u))
        d2 = float((p - mid) @ (p - mid))
        return d2 < r2 * (1.0 - 1e-12)

    def insert(p):
        if any(np.hypot(*(p - q)) <= tol for q in pts):
            raise mesh.MeshRefinementError(
                "refinement produced a duplicate node; relax min_angle"
            )
        pts.append(p)

    def split_segment(k):
        u, v = segments[k]
        insert(0.5 * (np.asarray(pts[u]) + np.asarray(pts[v])))
        new = len(pts) - 1
        segments[k] = (u, new)
        segments.append((new, v))

    def check_budget():
        if len(pts) >= budget:
            raise mesh.MeshRefinementError(
                f"mesh refinement exceeded the node budget ({budget} nodes); "
                "relax min_angle"
            )

    triangles = mesh.delaunay_triangulation(np.array(pts))
    while True:
        arr = np.array(pts)
        encroached = None
        for k, (u, v) in enumerate(segments):
            for w in range(len(arr)):
                if w != u and w != v and encroaches(arr[w], (u, v), arr):
                    encroached = k
                    break
            if encroached is not None:
                break
        if encroached is not None:
            check_budget()
            split_segment(encroached)
            triangles = mesh.delaunay_triangulation(np.array(pts))
            continue

        worst = None
        worst_key = None
        for t, tri in enumerate(triangles):
            p = arr[tri]
            ang = triangle_min_angle(p)
            edges = [np.linalg.norm(p[(i + 1) % 3] - p[i]) for i in range(3)]
            if ang < min_angle - 1e-9:
                key = (ang, -max(edges))
                if worst_key is None or key < worst_key:
                    worst_key = key
                    worst = t
        if worst is None:
            break
        check_budget()
        tri_pts = arr[triangles[worst]]
        c = mesh._circumcenter(tri_pts)
        hit = [k for k in range(len(segments)) if encroaches(c, segments[k], arr)]
        if not hit and not np.all(hull_eq[:, :2] @ c + hull_eq[:, 2] <= 1e-9):
            g = tri_pts.mean(axis=0)
            hit = [
                k
                for k, (i, j) in enumerate(segments)
                if _segment_crossing(g, c, arr[i], arr[j])
            ]
        if hit:
            for k in sorted(hit, reverse=True):
                check_budget()
                split_segment(k)
        else:
            insert(c)
        triangles = mesh.delaunay_triangulation(np.array(pts))

    return mesh.Mesh(np.array(pts), triangles)


def assemble_fem_per_triangle(msh) -> tuple:
    """(lumped mass diagonal, stiffness CSR) of `spde.assemble_fem`, one
    triangle and one (a, b) entry at a time, in the same order of additions."""
    K = msh.n_vertices
    rows, cols, vals = [], [], []
    c_diag = np.zeros(K)
    for tri in msh.triangles:
        p = msh.vertices[tri]
        e1, e2 = p[1] - p[0], p[2] - p[0]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        area = 0.5 * abs(det)
        grads = np.array([[p[1][1] - p[2][1], p[2][0] - p[1][0]],
                          [p[2][1] - p[0][1], p[0][0] - p[2][0]],
                          [p[0][1] - p[1][1], p[1][0] - p[0][0]]]) / det
        local = area * (grads @ grads.T)
        for a in range(3):
            c_diag[tri[a]] += area / 3.0
            for b in range(3):
                rows.append(tri[a])
                cols.append(tri[b])
                vals.append(local[a, b])
    G = sp.csr_matrix((vals, (rows, cols)), shape=(K, K))
    G.sum_duplicates()
    return c_diag, G


def projector_per_point(msh, points) -> sp.csr_matrix:
    """`mesh.projector` with one `locate` call per query point, repeats
    included, building the matrix from Python triplet lists."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows, cols, vals = [], [], []
    outside = []
    for i, p in enumerate(pts):
        hit = mesh.locate(msh, p)
        if hit is None:
            outside.append(i)
            continue
        t, w = hit
        for local, k in enumerate(msh.triangles[t]):
            if w[local] > 0.0:
                rows.append(i)
                cols.append(int(k))
                vals.append(float(w[local]))
    if outside:
        raise ValueError(f"points outside the mesh hull at indices {outside}")
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(pts), msh.n_vertices))


def band_scatter_union(pattern, terms, weights):
    """`spde.BandPattern.scatter` by way of the union pattern: add each
    weighted term into one value per entry of the union of the terms'
    patterns, in term order, then copy the lower band, the dense rows'
    border and the corner out of those values by (row, column), using the
    pattern's permutation and bandwidth."""
    n = pattern.n
    terms = [sp.coo_matrix(t) for t in terms]
    for t in terms:
        t.sum_duplicates()
    keys = [t.row.astype(np.int64) * n + t.col for t in terms]
    union = np.unique(np.concatenate(keys))
    values = np.zeros(len(union))
    for key, t, w in zip(keys, terms, weights):
        values[np.searchsorted(union, key)] += w * t.data
    ns, nd = len(pattern.band_rows), len(pattern.dense_idx)
    at = np.empty(n, dtype=np.int64)
    at[pattern.band_rows] = np.arange(ns)
    at[pattern.dense_idx] = np.arange(nd)
    is_dense = np.isin(np.arange(n), pattern.dense_idx)
    ab = np.zeros((pattern.bw + 1, ns), order="F")
    B = np.zeros((nd, ns))
    F = np.zeros((nd, nd))
    for key, v in zip(union, values):
        r, c = divmod(int(key), n)
        if not is_dense[r] and not is_dense[c] and at[r] >= at[c]:
            ab[at[r] - at[c], at[c]] = v
        elif is_dense[r] and not is_dense[c]:
            B[at[r], at[c]] = v
        elif is_dense[r] and is_dense[c]:
            F[at[r], at[c]] = v
    return ab, B, F


def pre_ranks_by_dominance(pooled) -> np.ndarray:
    """`verify.pre_ranks` from the dense N × N matrix of weak dominance,
    ANDed over the coordinates: column j counts the rows i with
    x_ik ≤ x_jk for every k."""
    pooled = np.asarray(pooled, dtype=float)
    n = len(pooled)
    dominated = np.ones((n, n), dtype=bool)
    for k in range(pooled.shape[1]):
        col = pooled[:, k]
        dominated &= col[:, None] <= col[None, :]
    return dominated.sum(axis=0)


def multivariate_rank_by_dominance(ensemble, y, rng) -> int:
    """`verify.multivariate_rank` on `pre_ranks_by_dominance`, with the same
    one draw from `rng` to break the observation's ties."""
    pooled = np.vstack([np.atleast_1d(np.asarray(y, dtype=float))[None, :],
                        np.atleast_2d(np.asarray(ensemble, dtype=float))])
    prerank = pre_ranks_by_dominance(pooled)
    below = int(np.sum(prerank[1:] < prerank[0]))
    ties = int(np.sum(prerank[1:] == prerank[0]))
    return 1 + below + int(rng.integers(0, ties + 1))


def energy_score_by_pdist(sample, y) -> float:
    """`verify.energy_score` with the spread term from `pdist`: each
    unordered pair's distance ‖x_i − x_j‖ of the uncentred members, summed
    once and doubled."""
    x = np.atleast_2d(np.asarray(sample, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    n = len(x)
    term1 = float(np.mean(np.linalg.norm(x - yv[None, :], axis=1)))
    return term1 - float(pdist(x).sum()) / (n * n)


def ecc_ranks_per_site(raw, rng) -> np.ndarray:
    """`ecc.rank_permutation` of an (S, m) member array one site at a time:
    per row, m tie-break uniforms from `rng`, a lexsort of that row alone and
    its ranks scattered through the order."""
    rows = []
    for members in np.asarray(raw, dtype=float):
        tiebreak = rng.random(len(members))
        order = np.lexsort((tiebreak, members))
        pi = np.empty(len(members), dtype=int)
        pi[order] = np.arange(1, len(members) + 1)
        rows.append(pi)
    return np.array(rows).reshape(np.shape(raw))


def reorder_per_site(ranks, pooled) -> np.ndarray:
    """`ecc.reorder` one site at a time: each row of `pooled` cut into blocks
    of L values, each block indexed by that site's ranks minus one."""
    return np.array([np.asarray(row, dtype=float).reshape(-1, len(pi))[:, np.asarray(pi) - 1]
                     .reshape(-1) for pi, row in zip(ranks, pooled)]).reshape(np.shape(pooled))


def shuffle_ranks_per_site(S: int, L: int, rng) -> np.ndarray:
    """`ecc.shuffle_ranks` as S calls of `rng.permutation(L)`, plus one."""
    return np.array([rng.permutation(L) + 1 for _ in range(S)]).reshape(S, L)


def conditional_gaussian(Q_prior, A, noise_prec: float, y):
    """Gaussian conditioning of a GMRF prior on linear observations.

    Posterior precision Q_post = Q_prior + noise_prec·AᵀA and mean μ
    solving Q_post μ = noise_prec·Aᵀy.  An empty A returns the prior.
    """
    Qp = Q_prior.Q if isinstance(Q_prior, spde.Precision) else sp.csc_matrix(Q_prior)
    n = Qp.shape[0]
    A = sp.csr_matrix(A) if A is not None else sp.csr_matrix((0, n))
    if A.shape[0] == 0:
        return np.zeros(n), Qp
    if A.shape[1] != n:
        raise ValueError(f"design has {A.shape[1]} columns, expected {n}")
    y = np.asarray(y, dtype=float)
    if y.shape[0] != A.shape[0]:
        raise ValueError("observation vector length does not match design rows")
    Q_post = sp.csc_matrix(Qp + noise_prec * (A.T @ A))
    chol = spde.SparseCholesky(Q_post)
    mean = chol.solve(noise_prec * (A.T @ y))
    return mean, Q_post


def to_coo_text(matrix) -> str:
    """Coordinate-triplet dump (`row col value` per line, 0-based, sorted)
    for eyeballing sparse operators."""
    coo = sp.coo_matrix(matrix)
    coo.sum_duplicates()
    order = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}" for k in order
    ]
    return "\n".join(lines) + "\n"
