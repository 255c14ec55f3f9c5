"""Tests for FEM assembly, precision construction and GMRF sampling."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import assemble_fem_per_triangle, conditional_gaussian, to_coo_text

from enspost import mesh, spde


def unit_right_triangle():
    return mesh.Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
    )


def random_mesh(seed=3, n=12, scale=10.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, scale, (n, 2))
    return mesh.build_mesh(pts, min_angle=20)


class TestAssembleFem:
    def test_unit_right_triangle_analytic(self):
        ops = spde.assemble_fem(unit_right_triangle())
        expected_G = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(ops.G.toarray(), expected_G, atol=1e-12)
        assert np.allclose(ops.c_diag, [1 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_stiffness_row_sums_zero(self):
        ops = spde.assemble_fem(random_mesh())
        assert np.max(np.abs(ops.G @ np.ones(ops.K))) < 1e-10

    def test_scaling_invariance(self):
        msh = random_mesh(seed=9)
        ops = spde.assemble_fem(msh)
        c = 3.7
        scaled = mesh.Mesh(msh.vertices * c, msh.triangles)
        ops_scaled = spde.assemble_fem(scaled)
        assert np.allclose(ops_scaled.G.toarray(), ops.G.toarray(), atol=1e-10)
        assert np.allclose(ops_scaled.c_diag, c**2 * ops.c_diag, rtol=1e-12)

    def test_stiffness_positive_semidefinite(self):
        ops = spde.assemble_fem(random_mesh(seed=21))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(ops.K)
            assert x @ (ops.G @ x) >= -1e-10

    def test_degenerate_triangle_error(self):
        bad = mesh.Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            triangles=np.array([[0, 1, 2]]),
            )
        with pytest.raises(ValueError, match="degenerate"):
            spde.assemble_fem(bad)

    def test_degenerate_names_the_first_bad_triangle(self):
        bad = mesh.Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [np.nan, 0.0]]),
            triangles=np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]),
        )
        with pytest.raises(ValueError, match=r"^degenerate triangle \[0, 1, 3\] \(area 0\.0\)$"):
            spde.assemble_fem(bad)

    @pytest.mark.parametrize("seed, n, scale, offset", [
        (3, 12, 10.0, 0.0), (4, 40, 10.0, 0.0), (5, 25, 0.01, 0.0), (6, 30, 300.0, -1e3)])
    def test_bit_equal_to_the_per_triangle_loop(self, seed, n, scale, offset):
        """The array assembly adds the same terms in the same order as one
        triangle at a time, so C and G keep every bit."""
        msh = random_mesh(seed=seed, n=n, scale=scale)
        msh = mesh.Mesh(msh.vertices + offset, msh.triangles)
        ops = spde.assemble_fem(msh)
        c_diag, G = assemble_fem_per_triangle(msh)
        assert ops.c_diag.tobytes() == c_diag.tobytes()
        for part in ("indptr", "indices", "data"):
            assert getattr(ops.G, part).tobytes() == getattr(G, part).tobytes()


class TestPrecision:
    @pytest.fixture
    def ops(self):
        return spde.assemble_fem(random_mesh(seed=5, n=8))

    def test_unit_parameters_identity(self, ops):
        Q = spde.precision(ops, 1.0, 1.0)
        expected = (ops.C + ops.G).toarray()
        assert np.allclose(Q.Q.toarray(), expected, atol=1e-12)

    def test_tau_squared_scaling(self, ops):
        Q1 = spde.precision(ops, 0.7, 1.0).Q.toarray()
        Q2 = spde.precision(ops, 0.7, 2.0).Q.toarray()
        assert np.allclose(Q2, 4.0 * Q1, rtol=1e-12)

    def test_large_kappa_mass_dominates(self, ops):
        kappa, tau = 1e4, 1.3
        Q = spde.precision(ops, kappa, tau).Q.toarray()
        eigs = np.linalg.eigvalsh(Q)
        predicted = tau**2 * kappa**2 * ops.c_diag.min()
        assert eigs.min() == pytest.approx(predicted, rel=1e-3)

    def test_nonpositive_parameters_error(self, ops):
        with pytest.raises(ValueError):
            spde.precision(ops, -1.0, 1.0)
        with pytest.raises(ValueError):
            spde.precision(ops, 1.0, 0.0)

    def test_alpha2_formula(self, ops):
        kappa, tau = 0.8, 1.7
        Q2 = spde.precision(ops, kappa, tau, alpha=2).Q.toarray()
        B = (kappa**2 * ops.C + ops.G).toarray()
        expected = tau**2 * B @ np.diag(1.0 / ops.c_diag) @ B
        assert np.allclose(Q2, expected, atol=1e-9)

    def test_permutation_equivariance(self):
        msh = random_mesh(seed=13, n=8)
        ops = spde.assemble_fem(msh)
        rng = np.random.default_rng(1)
        perm = rng.permutation(msh.n_vertices)
        inv = np.argsort(perm)
        relabeled = mesh.Mesh(
            vertices=msh.vertices[perm],
            triangles=inv[msh.triangles],
        )
        ops_p = spde.assemble_fem(relabeled)
        Q = spde.precision(ops, 0.9, 1.1).Q.toarray()
        Qp = spde.precision(ops_p, 0.9, 1.1).Q.toarray()
        assert np.allclose(Qp, Q[np.ix_(perm, perm)], atol=1e-10)


class TestSampleGmrf:
    def test_scalar_variance(self):
        Q = spde.Precision(Q=sp.csc_matrix(np.array([[4.0]])))
        draws = spde.sample_gmrf(Q, 100_000, np.random.default_rng(0))
        assert abs(np.var(draws) - 0.25) / 0.25 < 0.03

    def test_covariance_matches_dense_inverse(self):
        msh = random_mesh(seed=3, n=8)  # <= 20 nodes
        assert msh.n_vertices <= 20
        ops = spde.assemble_fem(msh)
        Q = spde.precision(ops, 0.9, 0.8)
        draws = spde.sample_gmrf(Q, 50_000, np.random.default_rng(42))
        emp = np.cov(draws.T)
        dense = np.linalg.inv(Q.Q.toarray())
        rel = np.linalg.norm(emp - dense) / np.linalg.norm(dense)
        assert rel < 0.05

    def test_per_coordinate_variance(self):
        msh = random_mesh(seed=3, n=8)
        ops = spde.assemble_fem(msh)
        Q = spde.precision(ops, 0.9, 0.8)
        draws = spde.sample_gmrf(Q, 50_000, np.random.default_rng(7))
        dense = np.linalg.inv(Q.Q.toarray())
        emp_var = draws.var(axis=0)
        assert np.all(np.abs(emp_var - np.diag(dense)) / np.diag(dense) < 0.05)

    def test_mean_zero(self):
        msh = random_mesh(seed=3, n=8)
        ops = spde.assemble_fem(msh)
        Q = spde.precision(ops, 0.9, 0.8)
        draws = spde.sample_gmrf(Q, 50_000, np.random.default_rng(3))
        sd = np.sqrt(np.diag(np.linalg.inv(Q.Q.toarray())))
        assert np.all(np.abs(draws.mean(axis=0)) < 5 * sd / np.sqrt(50_000))

    def test_deterministic_given_seed(self):
        msh = random_mesh(seed=3, n=8)
        ops = spde.assemble_fem(msh)
        Q = spde.precision(ops, 0.9, 0.8)
        d1 = spde.sample_gmrf(Q, 10, np.random.default_rng(5))
        d2 = spde.sample_gmrf(Q, 10, np.random.default_rng(5))
        assert np.array_equal(d1, d2)

    def test_not_positive_definite_error(self):
        Q = spde.Precision(Q=sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            spde.sample_gmrf(Q, 1, np.random.default_rng(0))


class TestConditionalGaussian:
    def test_empty_observations_return_prior(self):
        msh = random_mesh(seed=5, n=8)
        ops = spde.assemble_fem(msh)
        Q = spde.precision(ops, 1.0, 1.0)
        mean, Q_post = conditional_gaussian(Q, None, 1.0, [])
        assert np.allclose(mean, 0.0)
        assert np.allclose(Q_post.toarray(), Q.Q.toarray())

    def test_scalar_conjugate_update(self):
        Q = sp.csc_matrix(np.array([[1.0]]))
        mean, Q_post = conditional_gaussian(Q, np.array([[1.0]]), 1.0, [2.0])
        assert mean[0] == pytest.approx(1.0, abs=1e-12)
        assert Q_post.toarray()[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_dense_computation(self):
        msh = random_mesh(seed=17, n=5)
        ops = spde.assemble_fem(msh)
        Q = spde.precision(ops, 0.8, 1.2)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, msh.n_vertices))
        y = rng.standard_normal(8)
        noise_prec = 2.5
        mean, Q_post = conditional_gaussian(Q, A, noise_prec, y)
        Qd = Q.Q.toarray() + noise_prec * A.T @ A
        mean_d = np.linalg.solve(Qd, noise_prec * A.T @ y)
        assert np.allclose(Q_post.toarray(), Qd, atol=1e-10)
        assert np.allclose(mean, mean_d, atol=1e-8)


class TestSparseCholesky:
    def test_logdet_solve_roundtrip(self):
        rng = np.random.default_rng(0)
        A = sp.random(30, 30, density=0.15, random_state=1)
        Q = sp.csc_matrix((A @ A.T).toarray() + 3.0 * np.eye(30))
        chol = spde.SparseCholesky(Q)
        sign, logdet = np.linalg.slogdet(Q.toarray())
        assert chol.logdet == pytest.approx(logdet, abs=1e-9)
        b = rng.standard_normal(30)
        assert np.allclose(Q.toarray() @ chol.solve(b), b, atol=1e-9)

    def test_dense_border_matches_plain(self):
        rng = np.random.default_rng(4)
        A = sp.random(25, 25, density=0.2, random_state=2)
        Qd = (A @ A.T).toarray() + 4.0 * np.eye(25)
        Qd[0, :] += 0.5
        Qd[:, 0] += 0.5
        Q = sp.csc_matrix(Qd)
        chol = spde.SparseCholesky(Q, dense=(0, 1))
        sign, logdet = np.linalg.slogdet(Qd)
        assert chol.logdet == pytest.approx(logdet, abs=1e-9)
        b = rng.standard_normal(25)
        assert np.allclose(Qd @ chol.solve(b), b, atol=1e-8)

    def test_non_finite_input_error(self):
        Qd = 2.0 * np.eye(4)
        Qd[2, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            spde.SparseCholesky(sp.csc_matrix(Qd))

    def test_solve_lt_covariance_identity(self):
        # w = solve_Lt(z) for standard normal z must have covariance Q^{-1}
        rng = np.random.default_rng(9)
        A = sp.random(12, 12, density=0.3, random_state=3)
        Qd = (A @ A.T).toarray() + 2.0 * np.eye(12)
        chol = spde.SparseCholesky(sp.csc_matrix(Qd), dense=(0,))
        Z = rng.standard_normal((12, 200_000))
        W = chol.solve_Lt(Z)
        emp = np.cov(W)
        assert np.linalg.norm(emp - np.linalg.inv(Qd)) / np.linalg.norm(np.linalg.inv(Qd)) < 0.05


class TestCooText:
    def test_triplet_format_roundtrip(self):
        ops = spde.assemble_fem(unit_right_triangle())
        text = to_coo_text(ops.G)
        entries = {}
        for line in text.strip().splitlines():
            i, j, v = line.split()
            entries[(int(i), int(j))] = float(v)
        assert entries[(0, 0)] == pytest.approx(1.0)
        assert entries[(0, 1)] == pytest.approx(-0.5)
        assert len(entries) == 9
