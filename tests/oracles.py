"""Independent reference computations shared by the test modules.

These deliberately take different computational routes from the library
code they check: quadrature instead of closed forms, dense covariance-side
linear algebra instead of sparse precision-side identities, and a
point-by-point refinement loop instead of whole-array scans.
"""

import math

import numpy as np
from scipy.spatial import ConvexHull
from scipy.special import ndtr

from enspost import memos, mesh, spde


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


def boundary_edges_by_count(triangles: np.ndarray) -> np.ndarray:
    """Sorted (min, max) vertex pairs of the edges used by one triangle only."""
    seen: dict = {}
    for tri in triangles:
        for i in range(3):
            e = (int(tri[i]), int(tri[(i + 1) % 3]))
            key = (min(e), max(e))
            seen[key] = seen.get(key, 0) + 1
    return np.array(sorted(k for k, count in seen.items() if count == 1), dtype=int).reshape(-1, 2)


def _segment_crossing(g, c, va, vb) -> bool:
    d1 = mesh._cross2(c - g, va - g)
    d2 = mesh._cross2(c - g, vb - g)
    d3 = mesh._cross2(vb - va, g - va)
    d4 = mesh._cross2(vb - va, c - va)
    return (d1 * d2 <= 0) and (d3 * d4 <= 0)


def ruppert_reference(sites, min_angle=20.0, max_edge=None, node_budget_factor=10):
    """Scalar Ruppert refinement: the loop `mesh.build_mesh` vectorizes,
    one segment, vertex and triangle at a time.  Same decisions, same order,
    same errors; input validation is left to `build_mesh`, and the initial
    hull segments, Delaunay triangulation and circumcenter are the library's."""
    tol = mesh._DEDUP_TOL_KM
    kept: list = []
    for p in np.array([[s.x, s.y] for s in sites], dtype=float):
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
                "refinement produced a duplicate node; relax min_angle or max_edge"
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
                "relax min_angle or max_edge"
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
            bad_angle = ang < min_angle - 1e-9
            bad_edge = max_edge is not None and max(edges) > max_edge * (1 + 1e-12)
            if bad_angle or bad_edge:
                key = (ang if bad_angle else min_angle, -max(edges))
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

    return mesh.Mesh(np.array(pts), triangles, boundary_edges_by_count(triangles))
