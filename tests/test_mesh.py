"""Tests for triangulation, refinement, point location and basis evaluation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from enspost import mesh
from enspost.data import Location
from oracles import ruppert_reference, triangle_min_angle


def locs(points):
    return [Location(f"s{i}", float(x), float(y)) for i, (x, y) in enumerate(points)]


def uniform_sites(seed, n):
    return np.random.default_rng(seed).uniform(0, 10, (n, 2))


def grid_sites(nx, ny):
    """Unit lattice: all triangles are congruent, so min angles and longest
    edges tie exactly, and sites lie inside hull edges."""
    return np.stack(np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float)), -1).reshape(-1, 2)


def circumcircle_contains(vertices, tri, point):
    a, b, c = vertices[tri]
    ax, ay = a - point
    bx, by = b - point
    cx, cy = c - point
    det = np.linalg.det(
        np.array(
            [
                [ax, ay, ax**2 + ay**2],
                [bx, by, bx**2 + by**2],
                [cx, cy, cx**2 + cy**2],
            ]
        )
    )
    return det > 1e-9


class TestBuildMesh:
    def test_three_points_single_triangle(self):
        msh = mesh.build_mesh(locs([(0, 0), (4, 0), (2, 3)]), min_angle=20)
        assert msh.n_vertices == 3
        assert len(msh.triangles) == 1

    def test_unit_square_two_triangles(self):
        msh = mesh.build_mesh(locs([(0, 0), (1, 0), (1, 1), (0, 1)]), min_angle=20)
        assert msh.n_vertices == 4
        assert len(msh.triangles) == 2

    def test_refinement_achieves_min_angle(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 10, (30, 2))
        msh = mesh.build_mesh(locs(pts), min_angle=20)
        assert msh.min_angles_deg().min() >= 20.0 - 1e-9

    def test_input_sites_are_vertices(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, (20, 2))
        msh = mesh.build_mesh(locs(pts), min_angle=20)
        for p in pts:
            assert np.min(np.hypot(*(msh.vertices - p).T)) < 1e-12

    def test_no_vertices_outside_hull(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 10, (25, 2))
        msh = mesh.build_mesh(locs(pts), min_angle=20)
        hull = ConvexHull(pts)
        inside = hull.equations[:, :2] @ msh.vertices.T + hull.equations[:, 2:]
        assert np.all(inside <= 1e-9)

    def test_area_covers_hull(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 10, (25, 2))
        msh = mesh.build_mesh(locs(pts), min_angle=20)
        hull_area = ConvexHull(pts).volume
        assert abs(msh.areas().sum() - hull_area) / hull_area < 1e-8

    def test_max_edge_constraint(self):
        msh = mesh.build_mesh(
            locs([(0, 0), (10, 0), (10, 10), (0, 10)]), min_angle=20, max_edge=4.0
        )
        p = msh.vertices[msh.triangles]
        edges = np.concatenate(
            [
                np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
                np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
            ]
        )
        assert edges.max() <= 4.0 * (1 + 1e-9)

    def test_collinear_sites_error(self):
        with pytest.raises(ValueError, match="collinear"):
            mesh.build_mesh(locs([(0, 0), (1, 1), (2, 2), (3, 3)]), min_angle=20)

    def test_node_budget_error(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, (12, 2))
        with pytest.raises(mesh.MeshRefinementError, match="budget"):
            mesh.build_mesh(locs(pts), min_angle=33.9, node_budget_factor=2)

    def test_min_angle_validation(self):
        with pytest.raises(ValueError):
            mesh.build_mesh(locs([(0, 0), (1, 0), (0, 1)]), min_angle=40)

    def test_sites_inside_hull_edges_end_segments(self):
        # were (1, 0) and (2, 0) not segment ends, they would encroach every
        # half the bottom edge is split into
        pts = [(0, 0), (1, 0), (2, 0), (3, 0), (1.5, 2)]
        msh = mesh.build_mesh(locs(pts), min_angle=20)
        assert msh.n_vertices == 7
        assert msh.min_angles_deg().min() >= 20.0 - 1e-9

    def test_duplicate_sites_merged(self):
        msh = mesh.build_mesh(
            locs([(0, 0), (0, 0), (1, 0), (0, 1)]), min_angle=5
        )
        assert msh.n_vertices == 3

    def test_delaunay_property_before_refinement(self):
        rng = np.random.default_rng(19)
        pts = rng.uniform(0, 10, (30, 2))
        tris = mesh.delaunay_triangulation(pts)
        for t in tris:
            for v in range(len(pts)):
                if v in t:
                    continue
                assert not circumcircle_contains(pts, t, pts[v])

    def test_triangles_ccw(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 10, (15, 2))
        msh = mesh.build_mesh(locs(pts), min_angle=20)
        p = msh.vertices[msh.triangles]
        signed = 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
        )
        assert np.all(signed > 0)

    def test_json_roundtrip(self):
        msh = mesh.build_mesh(locs([(0, 0), (1, 0), (1, 1), (0, 1)]), min_angle=20)
        back = mesh.Mesh.from_json(msh.to_json())
        assert np.allclose(back.vertices, msh.vertices)
        assert np.array_equal(back.triangles, msh.triangles)


class TestLocate:
    @pytest.fixture
    def msh(self):
        return mesh.build_mesh(locs([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)]), min_angle=20)

    def test_vertex_weight_one(self, msh):
        hit = mesh.locate(msh, msh.vertices[2])
        assert hit is not None
        t, w = hit
        local = list(msh.triangles[t]).index(2)
        assert w[local] == pytest.approx(1.0, abs=1e-12)

    def test_centroid_equal_weights(self, msh):
        centroid = msh.vertices[msh.triangles[0]].mean(axis=0)
        t, w = mesh.locate(msh, centroid)
        assert np.allclose(sorted(w), [1 / 3] * 3, atol=1e-10)

    def test_vertex_of_small_triangles_located(self):
        # its best barycentric weight rounds to -1.8e-12
        msh = mesh.build_mesh(locs([(1, 0), (0, 0), (0, 3), (1.0001, 0)]), min_angle=10)
        t, w = mesh.locate(msh, (1.0001, 0.0))
        assert w @ msh.vertices[msh.triangles[t]] == pytest.approx([1.0001, 0.0], abs=1e-12)

    def test_outside_returns_none(self, msh):
        assert mesh.locate(msh, (10.0, 10.0)) is None

    def test_weights_reproduce_point(self, msh):
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = rng.uniform(0.2, 3.8, 2)
            t, w = mesh.locate(msh, p)
            rebuilt = w @ msh.vertices[msh.triangles[t]]
            assert np.linalg.norm(rebuilt - p) < 1e-10


class TestProjector:
    @pytest.fixture
    def msh(self):
        rng = np.random.default_rng(8)
        return mesh.build_mesh(locs(rng.uniform(0, 10, (15, 2))), min_angle=20)

    def test_vertices_give_identity_rows(self, msh):
        proj = mesh.projector(msh, msh.vertices)
        eye = proj.matrix.toarray()
        assert np.allclose(eye, np.eye(msh.n_vertices), atol=1e-12)

    def test_affine_exactness(self, msh):
        f = lambda p: 2.0 * p[:, 0] + 3.0 * p[:, 1] + 1.0
        vertex_values = f(msh.vertices)
        rng = np.random.default_rng(4)
        # strictly interior queries via convex combinations of triangle vertices
        tris = rng.integers(0, len(msh.triangles), 10)
        w = rng.dirichlet([1, 1, 1], 10)
        points = np.einsum("ij,ijk->ik", w, msh.vertices[msh.triangles[tris]])
        proj = mesh.projector(msh, points)
        assert np.allclose(proj.matrix @ vertex_values, f(points), atol=1e-10)

    def test_edge_midpoint_weights(self):
        msh = mesh.build_mesh(locs([(0, 0), (2, 0), (0, 2)]), min_angle=10)
        midpoint = 0.5 * (msh.vertices[0] + msh.vertices[1])
        proj = mesh.projector(msh, [midpoint])
        row = proj.matrix.toarray()[0]
        assert sorted(row) == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)

    def test_rows_sum_to_one(self, msh):
        rng = np.random.default_rng(12)
        tris = rng.integers(0, len(msh.triangles), 40)
        w = rng.dirichlet([1, 1, 1], 40)
        points = np.einsum("ij,ijk->ik", w, msh.vertices[msh.triangles[tris]])
        proj = mesh.projector(msh, points)
        assert np.allclose(np.asarray(proj.matrix.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_exterior_point_error_lists_indices(self, msh):
        with pytest.raises(ValueError, match=r"\[1\]"):
            mesh.projector(msh, [msh.vertices[0], (99.0, 99.0)])


class TestScalarReference:
    """`build_mesh` takes every refinement decision of the point-by-point
    loop on the same bits, so the meshes are identical, not just close."""

    @pytest.mark.parametrize(
        "pts, min_angle, max_edge",
        [
            pytest.param(uniform_sites(4, 35), 10.0, None, id="35st-10deg"),
            pytest.param(uniform_sites(0, 20), 20.0, None, id="20st-20deg"),
            pytest.param(uniform_sites(0, 40), 20.0, None, id="40st-20deg"),
            pytest.param(uniform_sites(2, 25), 25.0, None, id="25st-25deg"),
            pytest.param(uniform_sites(5, 15), 30.0, None, id="15st-30deg"),
            pytest.param(uniform_sites(5, 12), 20.0, 2.5, id="12st-20deg-max-edge"),
            pytest.param(grid_sites(6, 5), 30.0, None, id="grid-30deg"),
            pytest.param(grid_sites(6, 5), 20.0, 1.2, id="grid-20deg-max-edge"),
        ],
    )
    def test_matches_scalar_loop(self, pts, min_angle, max_edge):
        msh = mesh.build_mesh(locs(pts), min_angle=min_angle, max_edge=max_edge)
        ref = ruppert_reference(locs(pts), min_angle=min_angle, max_edge=max_edge)
        assert msh.to_json() == ref.to_json()
        assert np.array_equal(msh.boundary, ref.boundary)
        angles = [triangle_min_angle(msh.vertices[t]) for t in msh.triangles]
        assert np.array_equal(msh.min_angles_deg(), angles)
        per_triangle = [np.linalg.inv(np.vstack([msh.vertices[t].T, np.ones(3)])) for t in msh.triangles]
        assert np.array_equal(msh.bary_transform(), per_triangle)


@st.composite
def near_duplicate_sites(draw):
    pts = draw(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=3, max_size=10, unique=True))
    d = np.array(pts[1:]) - pts[0]
    assume(np.any(d[:, 0, None] * d[None, :, 1] != d[:, 1, None] * d[None, :, 0]))
    x, y = pts[draw(st.integers(0, len(pts) - 1))]
    r = draw(st.floats(1e-4, 0.1))
    phi = draw(st.floats(0.0, 2 * math.pi))
    return [tuple(map(float, p)) for p in pts] + [(x + r * math.cos(phi), y + r * math.sin(phi))]


@st.composite
def cocircular_sites(draw):
    k = draw(st.integers(3, 12))
    radius = draw(st.floats(0.5, 5.0))
    phase = draw(st.floats(0.0, 2 * math.pi))
    pts = [
        (5.0 + radius * math.cos(phase + 2 * math.pi * i / k), 5.0 + radius * math.sin(phase + 2 * math.pi * i / k))
        for i in range(k)
    ]
    return pts + ([(5.0, 5.0)] if draw(st.booleans()) else [])


@st.composite
def collinear_plus_one_sites(draw):
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]))
    steps = draw(st.lists(st.integers(0, 10), min_size=2, max_size=8, unique=True))
    apex = draw(st.tuples(st.integers(-5, 15), st.integers(-5, 15)))
    assume(apex[0] * dy != apex[1] * dx)
    return [(float(i * dx), float(i * dy)) for i in steps] + [tuple(map(float, apex))]


@st.composite
def clustered_sites(draw):
    centers = draw(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=2, max_size=4, unique=True))
    spread = draw(st.floats(0.01, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    offsets = rng.normal(0.0, spread, (len(centers), draw(st.integers(2, 6)), 2))
    return [tuple(map(float, c + o)) for c, group in zip(np.array(centers, dtype=float), offsets) for o in group]


class TestBuildMeshProperties:
    @pytest.mark.parametrize(
        "sites_strategy",
        [near_duplicate_sites(), cocircular_sites(), collinear_plus_one_sites(), clustered_sites()],
        ids=["near-duplicate", "cocircular", "collinear-plus-one", "clustered"],
    )
    @given(data=st.data(), min_angle=st.sampled_from([10.0, 20.0, 30.0]))
    @settings(max_examples=25, deadline=None)
    def test_refinement_invariants(self, sites_strategy, data, min_angle):
        pts = np.array(data.draw(sites_strategy))
        try:
            msh = mesh.build_mesh(locs(pts), min_angle=min_angle)
        except mesh.MeshRefinementError:
            # besides the node budget, midpoint splitting may never settle
            # at a hull corner below 45 degrees or next to a site a hair off
            # a hull edge; that cascade ends in the sliver or Qhull checks
            return
        assert msh.min_angles_deg().min() >= min_angle - 1e-9
        dist = np.hypot(*(pts[:, None] - msh.vertices[None]).T)
        assert np.all(dist.min(axis=0) <= mesh._DEDUP_TOL_KM)
        hull = ConvexHull(pts)
        assert np.all(hull.equations[:, :2] @ msh.vertices.T + hull.equations[:, 2:] <= 1e-9)
        order = hull.vertices
        t = np.array([0.0, 0.3, 0.5, 0.9])[:, None, None]
        a, b = pts[order], pts[np.roll(order, -1)]
        on_edges = ((1 - t) * a + t * b).reshape(-1, 2)
        f = lambda p: 2.0 * p[:, 0] - 3.0 * p[:, 1] + 1.0
        proj = mesh.projector(msh, on_edges)
        assert np.allclose(proj @ f(msh.vertices), f(on_edges), atol=1e-9)
