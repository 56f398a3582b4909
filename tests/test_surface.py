import copy
import gc
import heapq
import logging
import math
import shutil
import struct
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import count, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from scalar_reference import Point2, control_rows, point_at, vertices
from splinefig.geom import Polyline, drop_repeats, split
from splinefig import surface
from splinefig.render import Style, emit_latex
from splinefig.expr import DomainError, compile_fn, steps
from splinefig.spline import SplineMethod, build_spline
from splinefig.surface import (
    REFINE_WINDOW,
    _feet,
    _halves,
    _jacobian_fn,
    _locate_params,
    _meet,
    _piece,
    OcclusionTester,
    ParametricSurface,
    Projection,
    SceneConfig,
    SpaceCurve,
    SurfaceError,
    _axis_curves,
    _collapsed,
    _edge_curve,
    _is_seam,
    _on_surface,
    boundary_curves,
    build_surface_scene,
    classify_visibility,
    contact_demo,
    intersect_projected,
    paraboloid_surface,
    project,
    project_curve,
    refine_contact,
    silhouette,
    wires,
)

VIEW = Projection()  # 60/25 degree oblique look


def mobius() -> ParametricSurface:
    return ParametricSurface.from_strings(
        "2*cos(v)*(2+u*cos(v/2))",
        "2*sin(v)*(2+u*cos(v/2))",
        "2*u*sin(v/2)",
        (-0.4, 0.4),
        (0.0, 2 * math.pi),
    )


def closest_pair(a: Polyline, b: Polyline) -> tuple[int, int]:
    """The vertex pair (i, j) of a and b nearest each other."""
    pa, pb = a.points, b.points
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    return divmod(int(np.argmin(d2)), d2.shape[1])


def dense_line(p0, p1, n=100) -> Polyline:
    return Polyline(
        tuple(
            Point2(p0[0] + (p1[0] - p0[0]) * k / n, p0[1] + (p1[1] - p0[1]) * k / n)
            for k in range(n + 1)
        )
    )


class TestProjection:
    def test_default_angles(self):
        assert VIEW.azimuth == pytest.approx(math.radians(60))
        assert VIEW.elevation == pytest.approx(math.radians(25))

    def test_elevation_limits(self):
        with pytest.raises(ValueError):
            Projection(0.0, math.pi / 2)
        with pytest.raises(ValueError):
            Projection(0.0, -math.pi / 2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Projection(0.0, math.pi / 2),
            lambda: SceneConfig(samples=0),
            lambda: SceneConfig(hidden_style="dotted"),
            lambda: ParametricSurface.from_strings("u", "v", "0", (1, 1), (0, 1)),
        ],
        ids=["elevation", "samples", "hidden", "u-range"],
    )
    def test_bad_values_raise_surface_error(self, make):
        with pytest.raises(SurfaceError):
            make()

    def test_topdown_degeneracy_rejected(self):
        # looking straight down would collapse the drawing plane
        Projection(0.0, 0.0)  # grazing view is fine

    def test_axis_aligned_view(self):
        # azimuth 0, elevation 0: the x axis goes into the screen
        p = Projection(0.0, 0.0)
        assert project((1.0, 0.0, 0.0), p) == pytest.approx((0.0, 0.0, 1.0))
        assert project((0.0, 1.0, 0.0), p) == pytest.approx((1.0, 0.0, 0.0))
        assert project((0.0, 0.0, 1.0), p) == pytest.approx((0.0, 1.0, 0.0))

    def test_quarter_turn(self):
        p = Projection(math.pi / 2, 0.0)
        assert project((1.0, 0.0, 0.0), p) == pytest.approx((-1.0, 0.0, 0.0))

    def test_linearity(self):
        a, b = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.7, -1.1])
        qa = np.array(project(a, VIEW))
        qb = np.array(project(b, VIEW))
        qs = np.array(project(a + b, VIEW))
        assert math.dist(qs[:2], qa[:2] + qb[:2]) < 1e-12
        assert qs[2] == pytest.approx(qa[2] + qb[2], abs=1e-12)

    def test_columns_project_as_each_point_does(self):
        xyz = np.array([[1.0, -2.0, 0.5], [0.3, 0.7, -1.1], [-0.0, 1e300, 3.0]])
        cols = project(xyz.T, VIEW)
        for k, row in enumerate(xyz.tolist()):
            assert _bits([c[k] for c in cols]) == _bits(project(row, VIEW))


class TestSurfaceBasics:
    def test_point_evaluation(self):
        s = paraboloid_surface()
        p = s.point(1.0, 0.0)
        assert type(p) is tuple and p == pytest.approx((1.0, 0.0, 3.0))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ParametricSurface.from_strings("u", "v", "0", (1, 1), (0, 1))

    def test_projected_curve_drops_repeats(self):
        c = SpaceCurve([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        poly = project_curve(c, VIEW)
        assert poly is not None
        assert len(poly.points) == 2
        assert poly.space.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]

    def test_projected_point_curve_is_none(self):
        c = SpaceCurve([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
        assert project_curve(c, VIEW) is None


class TestSilhouette:
    def test_plane_has_none(self):
        s = ParametricSurface.from_strings("u", "v", "u+v", (0, 1), (0, 1))
        assert silhouette(s, VIEW) == []

    def test_sphere_outline_is_a_unit_circle(self):
        s = ParametricSurface.from_strings(
            "sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)",
            (0.0, math.pi), (0.0, 2 * math.pi),
        )
        comps = silhouette(s, VIEW)
        assert len(comps) >= 1
        largest = max(comps, key=lambda c: len(c.xyz))
        radii = [math.hypot(*project(p, VIEW)[:2]) for p in largest.xyz.tolist()]
        assert max(abs(r - 1.0) for r in radii) < 1e-3

    def test_paraboloid_single_component(self):
        comps = silhouette(paraboloid_surface(), VIEW)
        assert len(comps) == 1
        # the fold along u = 0 collapses to the apex and must not leak
        # through as a second component
        assert len(comps[0].xyz) > 100

    def test_carries_uv_coordinates(self):
        comps = silhouette(paraboloid_surface(), VIEW)
        assert comps[0].uv is not None
        assert comps[0].uv.shape == (len(comps[0].xyz), 2)

    @pytest.mark.parametrize("view", [(40, 15), (60, 25), (80, 35), (53, 31)])
    def test_fold_crossings_all_have_roots(self, view, caplog):
        # J has no pole: the tracer finds a root on every crossed edge of
        # the benchmark surfaces' silhouettes, so it warns of none
        proj = Projection(*map(math.radians, view))
        with caplog.at_level(logging.WARNING, logger="splinefig.implicit"):
            assert silhouette(paraboloid_surface(), proj)
            assert silhouette(mobius(), proj)
        assert caplog.records == []


    @pytest.mark.parametrize(
        "surf",
        [
            mobius(),
            # the partials of z are undefined for v <= 0.5
            ParametricSurface.from_strings(
                "u", "v", "sqrt(v - 0.5) + u^2", (-1.0, 1.0), (0.0, 2.0)
            ),
        ],
        ids=["mobius", "partial"],
    )
    def test_jacobian_grid_matches_the_scalar_jacobian(self, surf):
        jac = _jacobian_fn(surf, VIEW)
        us = np.linspace(*surf.u_range, 23).tolist()
        vs = np.linspace(*surf.v_range, 29).tolist()
        grid = jac.grid(us, vs)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                try:
                    expected = jac(u, v)
                except DomainError:
                    assert np.isnan(grid[i, j])
                    continue
                assert grid[i, j] == expected
                assert math.copysign(1.0, grid[i, j]) == math.copysign(1.0, expected)

    @pytest.mark.parametrize(
        "surf",
        [
            paraboloid_surface(),
            mobius(),
            ParametricSurface.from_strings(
                "u", "v", "sqrt(v - 0.5) + u^2", (-1.0, 1.0), (0.0, 2.0)
            ),
        ],
        ids=["paraboloid", "mobius", "partial"],
    )
    def test_compiled_jacobian_matches_the_product_of_partials(self, surf):
        # The reference is J = xu*yv - xv*yu from the four partials
        # compiled one by one, NaN where a partial is undefined.  The
        # compiled J may differ from it in one case only: when each
        # partial is finite but J overflows, the compiled J raises
        # DomainError (as every compiled function does) where the
        # reference gives an infinity.  None of these surfaces overflows.
        xu, xv, yu, yv = (
            compile_fn(e, ("u", "v"))
            for e in surface._projected_partials(surf, VIEW)
        )
        us = np.linspace(*surf.u_range, 23).tolist()
        vs = np.linspace(*surf.v_range, 29).tolist()
        a, b, c, d = (g.grid(us, vs) for g in (xu, yv, xv, yu))
        ref_grid = a * b - c * d
        jac = _jacobian_fn(surf, VIEW)
        grid = jac.grid(us, vs)
        assert np.array_equal(np.isnan(grid), np.isnan(ref_grid))
        assert _bits(grid[~np.isnan(grid)]) == _bits(ref_grid[~np.isnan(ref_grid)])
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                try:
                    ref = xu(u, v) * yv(u, v) - xv(u, v) * yu(u, v)
                except DomainError:
                    with pytest.raises(DomainError):
                        jac(u, v)
                    assert np.isnan(ref_grid[i, j])
                    continue
                assert math.isfinite(ref)
                assert _bits([jac(u, v)]) == _bits([ref])
                assert _bits([ref_grid[i, j]]) == _bits([ref])


class TestBoundaries:
    def test_paraboloid_has_only_the_rim(self):
        labels = [c.label for c in boundary_curves(paraboloid_surface())]
        assert labels == ["boundary:u=2"]

    def test_cylinder_has_two_rims(self):
        s = ParametricSurface.from_strings(
            "cos(v)", "sin(v)", "u", (0.0, 1.0), (0.0, 2 * math.pi)
        )
        labels = [c.label for c in boundary_curves(s)]
        assert labels == ["boundary:u=0", "boundary:u=1"]

    def test_mobius_has_two_rims(self):
        labels = [c.label for c in boundary_curves(mobius())]
        assert labels == ["boundary:u=-0.4", "boundary:u=0.4"]

    def test_patch_keeps_all_four_edges(self):
        s = ParametricSurface.from_strings("u", "v", "u*v", (0, 1), (0, 1))
        assert len(boundary_curves(s)) == 4

    def test_seam_along_u_drops_only_the_seam(self):
        # the paraboloid with u and v swapped: the seam is u = 0 ~ u = 2 pi
        s = ParametricSurface.from_strings(
            "v*cos(u)", "v*sin(u)", "4-v^2", (0.0, 2 * math.pi), (0.0, 2.0)
        )
        assert [c.label for c in boundary_curves(s)] == ["boundary:v=2"]

    def test_swapped_cylinder_has_two_rims(self):
        s = ParametricSurface.from_strings(
            "cos(u)", "sin(u)", "v", (0.0, 2 * math.pi), (0.0, 1.0)
        )
        labels = [c.label for c in boundary_curves(s)]
        assert labels == ["boundary:v=0", "boundary:v=1"]


class TestWires:
    def test_count_and_labels(self):
        ws = wires(paraboloid_surface(), fixed_v=[0.0, math.pi], samples=20)
        assert [w.label for w in ws] == ["wire:v=0", "wire:v=3.14159"]
        assert all(len(w.xyz) == 21 for w in ws)

    def test_wire_lies_on_surface(self):
        s = paraboloid_surface()
        (w,) = wires(s, fixed_v=[1.0], samples=10)
        for p, (u, v) in zip(w.xyz.tolist(), w.uv.tolist()):
            assert math.dist(p, s.point(u, v)) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(SurfaceError):
            wires(paraboloid_surface(), fixed_u=[3.0])


# ---------------------------------------------------------------------------
# reference: the per-vertex curve path that the array code replaced.  Each
# vertex is one scalar s._xyz call, skipped where it raises; two points
# are one within 1e-9 * max(1, largest |coordinate|), measured as
# sqrt(dx*dx + dy*dy + dz*dz); a projected vertex is dropped when its
# distance to the last vertex kept is 0.0


def _reference_on_surface(s, params):
    pts, uv = [], []
    for u, v in params:
        try:
            pts.append(s._xyz(u, v))
        except DomainError:
            continue
        uv.append((u, v))
    return pts, uv


def _reference_edge_curve(s, fixed, value, samples):
    lo, hi = s.v_range if fixed == "u" else s.u_range
    ts = steps(lo, hi, samples)
    pts, uv = _reference_on_surface(
        s, [(value, t) if fixed == "u" else (t, value) for t in ts]
    )
    return (pts, uv) if len(pts) >= 2 else None


def _reference_dist(p, q) -> float:
    dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _reference_same_point_tol(pts) -> float:
    return 1e-9 * max(1.0, max(max(abs(c) for c in p) for p in pts))


def _reference_collapsed(pts) -> bool:
    tol = _reference_same_point_tol(pts)
    return all(_reference_dist(p, pts[0]) <= tol for p in pts)


def _reference_is_seam(a, b) -> bool:
    if len(a) != len(b):
        return False
    tol = _reference_same_point_tol(a)
    if all(_reference_dist(p, q) <= tol for p, q in zip(a, b)):
        return True
    return all(_reference_dist(p, q) <= tol for p, q in zip(a, reversed(b)))


def _reference_project_curve(pts, uv, proj):
    st, ct, sf, cf = proj.trig
    xy, space, tags = [], [], []
    for k, (x, y, z) in enumerate(pts):
        q = (-x * st + y * ct, -x * ct * sf - y * st * sf + z * cf)
        if xy and math.hypot(xy[-1][0] - q[0], xy[-1][1] - q[1]) == 0.0:
            continue
        xy.append(q)
        space.append((x, y, z))
        if uv is not None:
            tags.append(uv[k])
    if len(xy) < 2:
        return None
    return xy, space, None if uv is None else tags


def _along(rng: tuple[float, float], f: float) -> float:
    return rng[0] + (rng[1] - rng[0]) * f


def _same_rows(rows: np.ndarray, ref) -> bool:
    """Whether the array holds the reference rows, bit for bit."""
    ref = np.array(ref, dtype=float).reshape(-1, rows.shape[1])
    return rows.dtype == np.float64 and rows.tobytes() == ref.tobytes()


CURVE_SURFACES = {
    # undefined for v < 0.5: the edge v = 0 is no curve, and u = +-1 start late
    "partial": (("u", "v", "sqrt(v - 0.5) + u^2"), (-1.0, 1.0), (0.0, 2.0)),
    # the seam v = 0 ~ v = 2 pi, in step, and the apex edge u = 0
    "paraboloid": (("u*cos(v)", "u*sin(v)", "4-u^2"), (0.0, 2.0), (0.0, 2 * math.pi)),
    # the seam v = 0 ~ v = 2 pi, reversed
    "mobius": (
        ("2*cos(v)*(2+u*cos(v/2))", "2*sin(v)*(2+u*cos(v/2))", "2*u*sin(v/2)"),
        (-0.4, 0.4),
        (0.0, 2 * math.pi),
    ),
    # the paraboloid 1e12 times over: its seam's points lie 1e-4 apart
    "large": (
        ("1e12*u*cos(v)", "1e12*u*sin(v)", "1e12*(4-u^2)"),
        (0.0, 2.0),
        (0.0, 2 * math.pi),
    ),
    # a double cone: the wire u = 0 is its apex
    "cone": (("u*cos(v)", "u*sin(v)", "u"), (-1.0, 1.0), (0.0, 2 * math.pi)),
    # exp leaves the double range where u*v > 0.7098, near 1e308 before it
    "overflow": (("u", "v", "exp(u*v*1e3)"), (0.0, 1.0), (0.0, 1.0)),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CURVE_SURFACES)),
    samples=st.integers(1, 60),
    wire=st.tuples(st.sampled_from("uv"), st.floats(0.0, 1.0)),
    view=st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.5, 1.5)),
    params=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), max_size=20),
)
@example(name="cone", samples=40, wire=("u", 0.5), view=(1.0, 0.4), params=[])
@example(name="overflow", samples=50, wire=("v", 1.0), view=(1.0, 0.4), params=[])
def test_property_curve_arrays_match_the_per_vertex_path(
    name, samples, wire, view, params
):
    exprs, u_range, v_range = CURVE_SURFACES[name]
    s = ParametricSurface.from_strings(*exprs, u_range, v_range)
    proj = Projection(*view)

    # points at parameters spread over the rectangle and past it
    uv = [(_along(u_range, a), _along(v_range, b)) for a, b in params]
    xyz, kept = _on_surface(s, *np.array(uv, dtype=float).reshape(-1, 2).T)
    ref_xyz, ref_kept = _reference_on_surface(s, uv)
    assert _same_rows(xyz, ref_xyz) and _same_rows(kept, ref_kept)

    fixed, f = wire
    edges = [(fixed, _along(u_range if fixed == "u" else v_range, f))]
    edges += [("u", value) for value in u_range] + [("v", value) for value in v_range]
    curves = {}
    for fixed, value in edges:
        got = _edge_curve(s, fixed, value, samples)
        ref = _reference_edge_curve(s, fixed, value, samples)
        assert (got is None) == (ref is None)
        if got is None:
            continue
        curves[fixed, value] = got, ref[0]
        assert _same_rows(got.xyz, ref[0]) and _same_rows(got.uv, ref[1])
        assert not got.xyz.flags.writeable and not got.uv.flags.writeable
        assert _collapsed(got) == _reference_collapsed(ref[0])
        poly = project_curve(got, proj)
        ref_poly = _reference_project_curve(*ref, proj)
        assert (poly is None) == (ref_poly is None)
        if poly is not None:
            assert _same_rows(poly.points, ref_poly[0])
            assert _same_rows(poly.space, ref_poly[1])
            assert _same_rows(poly.params, ref_poly[2])
    for fixed, (lo, hi) in (("u", u_range), ("v", v_range)):
        if (fixed, lo) in curves and (fixed, hi) in curves:
            (a, ref_a), (b, ref_b) = curves[fixed, lo], curves[fixed, hi]
            assert _is_seam(a, b) == _reference_is_seam(ref_a, ref_b)


@pytest.mark.parametrize("name", ["paraboloid", "mobius"])
def test_default_scene_curves_make_no_scalar_surface_call(name):
    # each curve's points come from one s._xyz.at call: the README
    # paraboloid's 4 edges, 6 wires and axis extent take one each
    s, cfg = {
        "paraboloid": (
            paraboloid_surface(),
            SceneConfig(wires_v=tuple(k * math.pi / 3 for k in range(6))),
        ),
        "mobius": (mobius(), SceneConfig()),
    }[name]
    real = s._xyz
    calls = {"scalar": 0, "at": 0}

    def scalar(u, v):
        calls["scalar"] += 1
        return real(u, v)

    def at(*columns):
        calls["at"] += 1
        return real.at(*columns)

    scalar.at = at
    s.__dict__["_xyz"] = scalar  # where the cached property keeps it
    for curve in (
        *boundary_curves(s, cfg.samples),
        *wires(s, cfg.wires_u, cfg.wires_v, cfg.samples),
        *_axis_curves(s, cfg.samples),
    ):
        project_curve(curve, VIEW)
    assert calls == {"scalar": 0, "at": {"paraboloid": 11, "mobius": 5}[name]}
    silhouette(s, VIEW, cfg.grid)
    assert calls["scalar"] == 0


class TestIntersectProjected:
    def test_perpendicular_crossing(self):
        a = dense_line((-1, 0), (1, 0))
        b = dense_line((0.123, -1), (0.123, 1))
        res = intersect_projected(a, b)
        assert len(res.crossings) == 1
        c = res.crossings[0]
        assert Point2(0.123, 0.0).dist(c.point) < 1e-12
        assert not res.contacts

    def test_parallel_lines(self):
        a = dense_line((0, 0), (1, 0))
        b = dense_line((0, 0.5), (1, 0.5))
        res = intersect_projected(a, b)
        assert not res.crossings
        assert not res.contacts

    def test_matches_brute_force(self):
        # wiggly curves; prefilter must not lose any crossing
        t = np.linspace(0, 2 * math.pi, 400)
        a = Polyline(tuple(Point2(x, math.sin(3 * x)) for x in t))
        b = Polyline(tuple(Point2(x, math.cos(2 * x) * 0.8) for x in t))
        res = intersect_projected(a, b)

        def seg_cross(p1, p2, q1, q2):
            r = (p2.x - p1.x, p2.y - p1.y)
            s = (q2.x - q1.x, q2.y - q1.y)
            den = r[0] * s[1] - r[1] * s[0]
            if den == 0:
                return None
            dx, dy = q1.x - p1.x, q1.y - p1.y
            tt = (dx * s[1] - dy * s[0]) / den
            uu = (dx * r[1] - dy * r[0]) / den
            if 0 <= tt <= 1 and 0 <= uu <= 1:
                return Point2(p1.x + tt * r[0], p1.y + tt * r[1])
            return None

        va, vb = vertices(a), vertices(b)
        brute = []
        for i in range(len(va) - 1):
            for j in range(len(vb) - 1):
                hit = seg_cross(va[i], va[i + 1], vb[j], vb[j + 1])
                if hit is not None and all(
                    hit.dist(k) > 1e-9 for k in brute
                ):
                    brute.append(hit)
        assert len(res.crossings) == len(brute)
        for c in res.crossings:
            assert min(k.dist(c.point) for k in brute) < 1e-9

    def test_tangent_circles_report_contact(self):
        # externally tangent at the origin; no transversal crossing
        t = np.linspace(0, 2 * math.pi, 720)
        a = Polyline(tuple(Point2(1 + math.cos(x), math.sin(x)) for x in t))
        b = Polyline(tuple(Point2(-1 + math.cos(x), math.sin(x)) for x in t))
        res = intersect_projected(a, b)
        assert res.contacts
        site = min(res.contacts, key=lambda s: math.hypot(*s.point))
        assert math.hypot(*site.point) < 0.05

    @pytest.mark.parametrize(
        "a, b, want",
        [
            (
                [(-1e200, -1e200), (1e200, 1e200)],
                [(-1e200, 1e200), (1e200, -1e200)],
                [(0.0, 0.0)],
            ),
            (
                [(-1.0, -1.0), (1.0, 1.0), (1e200, -1e200)],
                [(-1.0, 1.0), (1.0, -1.0), (1e200, 1e200)],
                [(0.0, 0.0), (2.0, 0.0)],
            ),
        ],
        ids=["x-spanning-1e200", "unit-crossing-beside-1e200"],
    )
    def test_far_out_crossings_do_not_overflow(self, a, b, want):
        # unscaled, the cross products of these segments overflow: numpy
        # scalars warned, and Python floats would put the second
        # crossing at (1, 1)
        res = intersect_projected(
            Polyline(tuple(Point2(*p) for p in a)),
            Polyline(tuple(Point2(*p) for p in b)),
        )
        assert [c.point for c in res.crossings] == want
        assert not res.contacts

    def test_self_intersection(self):
        # a figure eight crosses itself once at the origin
        t = np.linspace(0, 2 * math.pi, 600)
        fig8 = Polyline(
            tuple(Point2(math.sin(2 * x), math.sin(x)) for x in t)
        )
        res = intersect_projected(fig8, fig8)
        assert len(res.crossings) == 1
        assert math.hypot(*res.crossings[0].point) < 1e-9


# ---------------------------------------------------------------------------
# intersect_projected against the dense n x m routine it replaced


def _reference_segment_feet(points, chain):
    bx, by = chain[:-1, 0], chain[:-1, 1]
    sx, sy = chain[1:, 0] - bx, chain[1:, 1] - by
    scale = surface._pow2_scale(sx, sy)
    ux, uy = sx / scale, sy / scale
    unit_len2 = ux * ux + uy * uy
    unit_len2[unit_len2 == 0.0] = 1.0
    px, py = points[:, :1], points[:, 1:]
    with np.errstate(over="ignore"):
        t = ((px - bx) * ux + (py - by) * uy) / unit_len2 / scale
    t = np.clip(t, 0.0, 1.0)
    ox = px - (bx + t * sx)
    oy = py - (by + t * sy)
    r = surface._pow2_scale(ox, oy)
    ox, oy = ox / r, oy / r
    return t, np.sqrt(ox * ox + oy * oy) * r


def reference_intersect(a: Polyline, b: Polyline):
    """The dense intersect_projected: n x m box masks and distances.
    Returns (point, ia, ib) of the crossings and of the contacts, and
    the crossings' parameters on a (on b too, in self mode)."""
    self_mode = a is b
    pa, pb = a.points, b.points
    amin, amax = np.minimum(pa[:-1], pa[1:]), np.maximum(pa[:-1], pa[1:])
    bmin, bmax = np.minimum(pb[:-1], pb[1:]), np.maximum(pb[:-1], pb[1:])
    overlap = (
        (amin[:, None, 0] <= bmax[None, :, 0])
        & (bmin[None, :, 0] <= amax[:, None, 0])
        & (amin[:, None, 1] <= bmax[None, :, 1])
        & (bmin[None, :, 1] <= amax[:, None, 1])
    )
    if self_mode:
        idx = np.arange(len(amin))
        overlap &= np.abs(idx[:, None] - idx[None, :]) > 1
        overlap &= idx[:, None] < idx[None, :]
    va, vb = pa.tolist(), pb.tolist()
    crossings = []
    params = []
    for i, j in zip(*(k.tolist() for k in np.nonzero(overlap))):
        (px, py), (ax, ay) = va[i], va[i + 1]
        (qx, qy), (bx, by) = vb[j], vb[j + 1]
        rx, ry, wx, wy = ax - px, ay - py, bx - qx, by - qy
        dx, dy = qx - px, qy - py
        big = max(abs(rx), abs(ry), abs(wx), abs(wy), abs(dx), abs(dy))
        e = -math.frexp(big)[1]
        sx, sy = math.ldexp(rx, e), math.ldexp(ry, e)
        ux, uy = math.ldexp(wx, e), math.ldexp(wy, e)
        ex, ey = math.ldexp(dx, e), math.ldexp(dy, e)
        denom = sx * uy - sy * ux
        if denom == 0.0:
            continue
        t = (ex * uy - ey * ux) / denom
        s = (ex * sy - ey * sx) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
            x, y = px + t * rx, py + t * ry
            if any(
                math.hypot(x - cx, y - cy) <= surface.CROSSING_DEDUP_TOL
                for (cx, cy), _, _ in crossings
            ):
                continue
            crossings.append(((x, y), i, j))
            params.extend((i + t, j + s) if self_mode else (i + t,))
    contacts = []
    used = set()
    for k, (_, ia, _) in enumerate(crossings):
        if k in used:
            continue
        group = [
            m for m, d in enumerate(crossings) if abs(d[1] - ia) <= 5 and m not in used
        ]
        if len(group) > 3:
            used.update(group)
            contacts.append(crossings[group[len(group) // 2]])
    if not self_mode:
        tt, dist = _reference_segment_feet(pa, pb)
        sites = []
        for i, j in np.argwhere(dist < surface.CONTACT_TOL).tolist():
            window = dist[max(0, i - 2) : i + 3, max(0, j - 2) : j + 3]
            if dist[i, j] <= window.min():
                sites.append((float(dist[i, j]), i, j))
        kept = []
        for d, i, j in sorted(sites):
            if any(abs(i - ki) < 6 and abs(j - kj) < 6 for ki, kj in kept):
                continue
            if any(abs(ia - i) <= 5 and abs(ib - j) <= 5 for _, ia, ib in crossings):
                continue
            kept.append((i, j))
            (qx, qy), (bx, by), t = vb[j], vb[j + 1], float(tt[i, j])
            fx, fy = qx + t * (bx - qx), qy + t * (by - qy)
            contacts.append(((0.5 * (va[i][0] + fx), 0.5 * (va[i][1] + fy)), i, j))
    return repr(crossings), repr(contacts), repr(params)


def _answer(res) -> tuple[str, str, str]:
    """repr tells -0.0 from 0.0, so equal answers are equal bits."""
    return (
        *(
            repr([(c.point, c.ia, c.ib) for c in part])
            for part in (res.crossings, res.contacts)
        ),
        repr(list(res.params)),
    )


# shared values give repeated x, vertical and horizontal segments
_coord = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([-0.5, -0.03, -0.0, 0.0, 0.01, 0.02, 0.25, 0.5]),
)


@st.composite
def polylines(draw) -> Polyline:
    rows = draw(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=40))
    if draw(st.booleans()):
        # one very long segment
        far = draw(st.sampled_from([-40.0, 40.0, 1e6]))
        rows.insert(draw(st.integers(0, len(rows))), (far, draw(_coord)))
    xy = drop_repeats(np.array(rows, dtype=float))
    assume(len(xy) >= 2)
    return Polyline(xy)


@st.composite
def curve_pairs(draw) -> tuple[Polyline, Polyline]:
    a = draw(polylines())
    kind = draw(st.sampled_from(["other", "self", "same", "reversed", "shifted"]))
    if kind == "self":
        return a, a
    if kind == "same":
        return a, Polyline(a.points.copy())
    if kind == "reversed":
        return a, Polyline(a.points[::-1].copy())
    if kind == "shifted":
        shift = draw(st.tuples(*[st.floats(-0.03, 0.03)] * 2))
        xy = drop_repeats(a.points + shift)
        assume(len(xy) >= 2)
        return a, Polyline(xy)
    return a, draw(polylines())


@settings(max_examples=300, deadline=None)
@given(pair=curve_pairs(), block=st.sampled_from([1, 7, 1 << 16]))
@example(
    pair=(
        Polyline(np.array([(0.0, 0.0), (0.0, 1.0), (0.01, 0.0), (0.01, 1.0)])),
        Polyline(np.array([(0.0, 0.5), (0.02, 0.5), (0.02, 0.51), (50.0, 0.51)])),
    ),
    block=1,
)
def test_property_intersect_matches_the_dense_reference(pair, block):
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "FEET_BLOCK", block)
        got = intersect_projected(a, b)
    assert _answer(got) == reference_intersect(a, b)


def _scalar_meet(p, a, q, b):
    """reference_intersect's crossing arithmetic for the segments p -> a
    and q -> b, on Python floats: (t, s), or None where denom is 0."""
    (px, py), (ax, ay), (qx, qy), (bx, by) = p, a, q, b
    rx, ry, wx, wy = ax - px, ay - py, bx - qx, by - qy
    dx, dy = qx - px, qy - py
    big = max(abs(rx), abs(ry), abs(wx), abs(wy), abs(dx), abs(dy))
    e = -math.frexp(big)[1]
    sx, sy = math.ldexp(rx, e), math.ldexp(ry, e)
    ux, uy = math.ldexp(wx, e), math.ldexp(wy, e)
    ex, ey = math.ldexp(dx, e), math.ldexp(dy, e)
    denom = sx * uy - sy * ux
    if denom == 0.0:
        return None
    return (ex * uy - ey * ux) / denom, (ex * sy - ey * sx) / denom


# every size from subnormal to near the largest float, both zeros, and
# values near 1e+-300, where an unscaled cross product under- or overflows
_meet_coord = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 3e300, 1e-300, -1e-300, 5e-324]),
)


@st.composite
def segment_pairs(draw):
    p, a, q, b = (draw(st.tuples(_meet_coord, _meet_coord)) for _ in range(4))
    kind = draw(st.sampled_from(["free", "parallel", "shared", "scaled"]))
    if kind == "parallel":
        # b - q is a - p, or a power of two times it: denom is 0
        k = draw(st.sampled_from([1.0, -1.0, 0.5, 4.0]))
        b = tuple(qc + k * (ac - pc) for qc, ac, pc in zip(q, a, p))
    elif kind == "shared":
        q = draw(st.sampled_from([p, a]))
    elif kind == "scaled":
        # one figure at another size: only under- and overflow tell them apart
        k = draw(st.sampled_from([1e-300, 1e-150, 1e150, 1e300]))
        p, a, q, b = (tuple(k * c for c in v) for v in (p, a, q, b))
    assume(all(math.isfinite(c) for v in (p, a, q, b) for c in v))
    return p, a, q, b


@settings(max_examples=500, deadline=None)
@given(seg=segment_pairs())
# unscaled, r x w here is inf - -inf and t is inf / inf, a NaN; scaled, 0.5
@example(seg=((0.0, 0.0), (1e200, 1e200), (1e200, 0.0), (0.0, 1e200)))
@example(seg=((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)))
@example(seg=((-0.0, 0.0), (0.0, -1.0), (1e-300, -0.5), (-1e-300, -0.5)))
def test_property_meet_is_the_scalar_crossing_arithmetic(seg):
    p, a, q, b = (np.array([v]) for v in seg)
    with np.errstate(over="ignore"):  # as Python floats overflow
        t, s = (float(x[0]) for x in _meet(p, a - p, q, b - q))
    want = _scalar_meet(*seg)
    if want is None:
        # parallel: no t can pass the [0, 1] test
        assert not math.isfinite(t)
    else:
        assert repr((t, s)) == repr(want)


@st.composite
def box_sets(draw):
    def boxes(n):
        pairs = st.lists(st.tuples(_coord, _coord), min_size=2 * n, max_size=2 * n)
        corners = np.array(draw(pairs))
        return np.minimum(corners[:n], corners[n:]), np.maximum(corners[:n], corners[n:])

    return (*boxes(draw(st.integers(1, 30))), *boxes(draw(st.integers(1, 30))))


@settings(max_examples=100, deadline=None)
@given(boxes=box_sets(), block=st.integers(1, 60))
def test_property_pair_blocks_are_the_dense_box_overlaps(boxes, block):
    alo, ahi, blo, bhi = boxes
    dense = np.argwhere(
        (alo[:, None, 0] <= bhi[None, :, 0])
        & (blo[None, :, 0] <= ahi[:, None, 0])
        & (alo[:, None, 1] <= bhi[None, :, 1])
        & (blo[None, :, 1] <= ahi[:, None, 1])
    ).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "FEET_BLOCK", block)
        blocks = list(surface._pair_blocks(alo, ahi, blo, bhi))
    # the blocks' rows run through a once, in order
    assert [lo for lo, _, _, _ in blocks] == [0, *(hi for _, hi, _, _ in blocks[:-1])]
    assert blocks[-1][1] == len(alo)
    for lo, hi, i, j in blocks:
        assert lo < hi
        assert np.column_stack([i, j]).tolist() == [p for p in dense if lo <= p[0] < hi]


class TestRefineContact:
    def test_transversal_lines_exact(self):
        a = dense_line((-1, -1), (1, 1), 40)
        b = dense_line((-1, 1), (1, -1), 40)
        i, j = closest_pair(a, b)
        rc = refine_contact(a, b, i, j)
        assert rc.refined
        assert math.hypot(*rc.point) < 1e-9

    def test_tangent_circles(self):
        t = np.linspace(0, 2 * math.pi, 720)
        a = Polyline(tuple(Point2(1 + math.cos(x), math.sin(x)) for x in t))
        b = Polyline(tuple(Point2(-1 + math.cos(x), math.sin(x)) for x in t))
        i, j = closest_pair(a, b)
        rc = refine_contact(a, b, i, j)
        assert rc.refined
        assert math.hypot(*rc.point) < 1e-6

    def test_refined_point_is_near_both_windows(self):
        t = np.linspace(0, 2 * math.pi, 720)
        a = Polyline(tuple(Point2(1 + math.cos(x), math.sin(x)) for x in t))
        b = Polyline(tuple(Point2(-1 + math.cos(x), math.sin(x)) for x in t))
        i, j = closest_pair(a, b)
        rc = refine_contact(a, b, i, j, tol=1e-7)
        if rc.refined:
            da = min(p.dist(rc.point) for p in vertices(a))
            db = min(p.dist(rc.point) for p in vertices(b))
            # within a vertex spacing of both curves
            assert da < 0.02 and db < 0.02

    def test_coincident_curves_bail_out(self):
        a = dense_line((0, 0), (1, 0), 60)
        rc = refine_contact(a, a, 30, 30)
        assert not rc.refined
        # the seed, the vertex averaged with itself, is the vertex
        assert rc.point == vertices(a)[30]

    def test_disjoint_windows_unrefined(self):
        a = dense_line((0, 0), (1, 0), 40)
        b = dense_line((0, 5), (1, 5), 40)
        rc = refine_contact(a, b, 20, 20)
        assert not rc.refined


# ---------------------------------------------------------------------------
# reference: the two contact searches refine_contact once ran, each piece
# split again in every pair that meets it.  Depth first, every pair of
# leaves whose boxes overlap is a candidate, the candidates cluster
# within 10*tol of each cluster's first, and the centroid nearest the
# site wins; with no candidate, a best-first search on box gaps alone
# seeks the closest approach


def _reference_piece(x0, y0, x1, y1, x2, y2, x3, y3) -> tuple[float, ...]:
    return (
        x0, y0, x1, y1, x2, y2, x3, y3,
        min(x0, x1, x2, x3),
        min(y0, y1, y2, y3),
        max(x0, x1, x2, x3),
        max(y0, y1, y2, y3),
    )


def _reference_halves(p: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    x0, y0, x1, y1, x2, y2, x3, y3 = p[:8]
    qx0 = x0 + (x1 - x0) * 0.5
    qy0 = y0 + (y1 - y0) * 0.5
    qx1 = x1 + (x2 - x1) * 0.5
    qy1 = y1 + (y2 - y1) * 0.5
    qx2 = x2 + (x3 - x2) * 0.5
    qy2 = y2 + (y3 - y2) * 0.5
    rx0 = qx0 + (qx1 - qx0) * 0.5
    ry0 = qy0 + (qy1 - qy0) * 0.5
    rx1 = qx1 + (qx2 - qx1) * 0.5
    ry1 = qy1 + (qy2 - qy1) * 0.5
    sx = rx0 + (rx1 - rx0) * 0.5
    sy = ry0 + (ry1 - ry0) * 0.5
    return (
        _reference_piece(x0, y0, qx0, qy0, rx0, ry0, sx, sy),
        _reference_piece(sx, sy, rx1, ry1, qx2, qy2, x3, y3),
    )


def _reference_box_gap(pa, pb) -> float:
    dx = max(pa[8] - pb[10], pb[8] - pa[10], 0.0)
    dy = max(pa[9] - pb[11], pb[9] - pa[11], 0.0)
    return math.hypot(dx, dy)


def _reference_window_pieces(poly: Polyline, center: int, window: int):
    lo = max(0, center - window)
    hi = min(len(poly.points) - 1, center + window)
    pts = vertices(poly)[lo : hi + 1]
    if len(pts) < 2:
        return None
    sp = build_spline(pts, method=SplineMethod.OSHIMA, closed=False)
    return [_reference_piece(*_flat(row)) for row in control_rows(sp)]


def _reference_closest_fit_point(pieces_a, pieces_b, seed: Point2, tol: float):
    tick = count()
    heap = []
    span = 1e-12
    for pa in pieces_a:
        span = max(span, pa[10] - pa[8], pa[11] - pa[9])
        for pb in pieces_b:
            heapq.heappush(heap, (_reference_box_gap(pa, pb), next(tick), pa, pb))

    for _ in range(5000):
        if not heap:
            break
        gap, _, pa, pb = heapq.heappop(heap)
        da = math.hypot(pa[10] - pa[8], pa[11] - pa[9])
        db = math.hypot(pb[10] - pb[8], pb[11] - pb[9])
        if da < tol and db < tol:
            if gap > 0.01 * (1.0 + span):
                break
            return surface.RefinedContact(
                Point2(
                    0.25 * (pa[8] + pa[10] + pb[8] + pb[10]),
                    0.25 * (pa[9] + pa[11] + pb[9] + pb[11]),
                ),
                True,
            )
        if da >= db:
            for piece in _reference_halves(pa):
                gap = _reference_box_gap(piece, pb)
                heapq.heappush(heap, (gap, next(tick), piece, pb))
        else:
            for piece in _reference_halves(pb):
                gap = _reference_box_gap(pa, piece)
                heapq.heappush(heap, (gap, next(tick), pa, piece))
    return surface.RefinedContact(seed, False)


def reference_refine_contact(
    a: Polyline,
    b: Polyline,
    center_a: int,
    center_b: int,
    window: int = REFINE_WINDOW,
    tol: float = surface.REFINE_TOL,
) -> surface.RefinedContact:
    seed = (vertices(a)[center_a] + vertices(b)[center_b]) * 0.5
    pieces_a = _reference_window_pieces(a, center_a, window)
    pieces_b = _reference_window_pieces(b, center_b, window)
    if pieces_a is None or pieces_b is None:
        return surface.RefinedContact(seed, False)

    win_a = a.points[max(0, center_a - window) : center_a + window + 1]
    win_b = b.points[max(0, center_b - window) : center_b + window + 1]
    if (_feet(win_a[:, None], win_b[:-1], win_b[1:])[1].min(axis=1) <= 10.0 * tol).all():
        return surface.RefinedContact(seed, False)

    candidates: list[Point2] = []
    stack = [(pa, pb, 0) for pa in pieces_a[::-1] for pb in pieces_b[::-1]]
    for _ in range(20_000):
        if not stack:
            break
        pa, pb, depth = stack.pop()
        xa0, ya0, xa1, ya1 = pa[8:]
        xb0, yb0, xb1, yb1 = pb[8:]
        if xa1 < xb0 or xb1 < xa0 or ya1 < yb0 or yb1 < ya0:
            continue
        da = math.hypot(xa1 - xa0, ya1 - ya0)
        db = math.hypot(xb1 - xb0, yb1 - yb0)
        if da < tol and db < tol:
            candidates.append(
                Point2(
                    0.25 * (xa0 + xa1 + xb0 + xb1),
                    0.25 * (ya0 + ya1 + yb0 + yb1),
                )
            )
            continue
        if depth > 60:
            continue
        halves_a = _reference_halves(pa) if da >= tol else (pa,)
        halves_b = _reference_halves(pb) if db >= tol else (pb,)
        stack.extend(
            (ha, hb, depth + 1) for ha in halves_a[::-1] for hb in halves_b[::-1]
        )

    if not candidates:
        return _reference_closest_fit_point(pieces_a, pieces_b, seed, tol)
    clusters: list[list[Point2]] = []
    for p in candidates:
        for cluster in clusters:
            if p.dist(cluster[0]) <= 10.0 * tol:
                cluster.append(p)
                break
        else:
            clusters.append([p])
    centroids = [
        Point2(sum(p.x for p in c) / len(c), sum(p.y for p in c) / len(c))
        for c in clusters
    ]
    best = min(centroids, key=lambda p: (p.dist(seed), p.x, p.y))
    return surface.RefinedContact(best, True)


def _sampled(f, lo: float, h: float, n: int) -> Polyline:
    """n vertices of the graph y = f(x), h apart in x from lo."""
    return Polyline(tuple(Point2(lo + k * h, f(lo + k * h)) for k in range(n)))


@st.composite
def window_pairs(draw):
    """A kind of meeting, two sampled curves meeting so, a window and a tol.

    A parabola y = k x^2 against: a line crossing it; a parabola
    opening the other way a small gap below it (grazing); the same
    parabola sampled from another phase (an overlapping duplicate,
    the very same vertices when the phases agree); or a copy far away.
    """
    kind = draw(st.sampled_from(["crossing", "grazing", "overlap", "far"]))
    k = draw(st.floats(0.2, 5.0))
    h = draw(st.floats(0.01, 0.05))
    n = draw(st.integers(4, 30))
    lo_a = -h * draw(st.floats(0.0, n - 1.0))
    a = _sampled(lambda x: k * x * x, lo_a, h, n)
    lo_b = -h * draw(st.floats(0.0, n - 1.0))
    if kind == "crossing":
        x0 = draw(st.floats(-0.1, 0.1))
        slope = draw(st.floats(-3.0, 3.0))
        b = _sampled(lambda x: k * x0 * x0 + slope * (x - x0), lo_b + x0, h, n)
    elif kind == "grazing":
        gap = draw(st.floats(1e-9, 0.02))
        k2 = draw(st.floats(0.2, 5.0))
        b = _sampled(lambda x: -k2 * x * x - gap, lo_b, h, n)
    elif kind == "overlap":
        b = _sampled(lambda x: k * x * x, draw(st.sampled_from([lo_a, lo_b])), h, n)
    else:
        far = draw(st.floats(1.0, 100.0))
        b = _sampled(lambda x: k * x * x + far, lo_b, h, n)
    window = draw(st.integers(1, REFINE_WINDOW))
    tol = draw(st.sampled_from([1e-7, 1e-5, 1e-3]))
    return kind, a, b, window, tol


def _fit_distance(poly: Polyline, center: int, window: int, q: Point2) -> float:
    """Distance from q to the open Oshima fit through the window around center.

    Each segment is sampled at 65 parameters, and the nearest sample's
    neighbourhood is narrowed by golden section.
    """
    pts = vertices(poly)[max(0, center - window) : center + window + 1]
    best = math.inf
    for seg in control_rows(build_spline(pts, method=SplineMethod.OSHIMA, closed=False)):
        def d(t: float) -> float:
            return point_at(seg, t).dist(q)

        t = min((k / 64 for k in range(65)), key=d)
        lo, hi = max(0.0, t - 1 / 64), min(1.0, t + 1 / 64)
        for _ in range(60):
            m1, m2 = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
            lo, hi = (lo, m2) if d(m1) < d(m2) else (m1, hi)
        best = min(best, d(t), d(0.5 * (lo + hi)))
    return best


@settings(max_examples=100, deadline=None)
@given(window_pairs())
@example(
    # y = x^2 sampled at two phases: the nearly parallel chords of the
    # winning leaves meet past the start of b's fit
    pair=(
        "overlap",
        Polyline(
            (
                Point2(-0.0386962890625, 0.0014974027872085571),
                Point2(-0.0074462890625, 5.544722080230713e-05),
                Point2(0.0238037109375, 0.0005666166543960571),
                Point2(0.0550537109375, 0.003030911087989807),
            )
        ),
        Polyline(
            (
                Point2(-0.0006103515625, 3.725290298461914e-07),
                Point2(0.0306396484375, 0.0009387880563735962),
                Point2(0.0618896484375, 0.003830328583717346),
                Point2(0.0931396484375, 0.008674994111061096),
            )
        ),
        2,
        1e-3,
    )
)
def test_property_refine_contact_agrees_with_the_reference(pair):
    # the reference averages the crossing leaves within 10*tol of the
    # first it finds, where the search takes the meeting of one leaf
    # pair's chords
    kind, a, b, window, tol = pair
    i, j = closest_pair(a, b)
    got = refine_contact(a, b, i, j, window, tol)
    ref = reference_refine_contact(a, b, i, j, window, tol)
    if not (got.refined or ref.refined):
        assert _bits(got.point) == _bits(ref.point)
    if kind == "overlap":
        # any point of the overlap is an answer
        if got.refined:
            assert _fit_distance(a, i, window, got.point) <= 2 * tol
            assert _fit_distance(b, j, window, got.point) <= 2 * tol
        return
    assert got.refined == ref.refined
    if got.refined and kind != "far":
        assert ref.point.dist(got.point) <= 10 * tol


def _scene_sites(
    s: ParametricSurface, cfg: SceneConfig, view: Projection = VIEW
) -> tuple[list[tuple], surface.SceneReport]:
    """Every refine_contact call of a scene (at 60/25 unless told), and
    its report."""
    sites = []
    real = surface.refine_contact

    def record(a, b, center_a, center_b):
        sites.append((a, b, center_a, center_b))
        return real(a, b, center_a, center_b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "refine_contact", record)
        _, report = build_surface_scene(s, view, cfg)
    return sites, report


def _python_loop(solve, *args):
    """solve(*args) with refine_contact's pop loop run in Python."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "_kernel", False)
        return solve(*args)


@pytest.fixture(scope="module")
def kernel():
    """refine.c, loaded; the test is skipped where it cannot be built."""
    dll = surface._load_kernel()
    if not dll:
        pytest.skip("no C compiler builds refine.c here")
    return dll


def test_kernel_loads_where_a_compiler_is_found():
    # a broken build would fall back to the Python loop without a word
    if shutil.which("cc"):
        assert surface._load_kernel()


def _hypot_batch() -> list[tuple[float, float]]:
    """120 000 fixed pairs across the exponent range, then the specials.

    Random bit patterns (every exponent, subnormals, infinities, NaNs),
    pairs whose exponents differ by up to 60 (where both terms count),
    and each pair of the specials."""
    rng = np.random.default_rng(2019)
    bits = rng.integers(0, 2**64, size=(40_000, 2), dtype=np.uint64)
    e = rng.integers(-1074, 1024, size=(80_000, 1)) + rng.integers(-30, 31, size=(80_000, 2))
    e = np.clip(e, -1074, 1023)  # |mantissa| < 1 keeps each finite
    near = np.ldexp(rng.uniform(-1.0, 1.0, size=(80_000, 2)), e)
    specials = [
        0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -3.0,
        1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
    ]
    return [
        *map(tuple, bits.view(np.float64).tolist()),
        *map(tuple, near.tolist()),
        *product(specials, repeat=2),
    ]


def test_hypot_port_is_math_hypot_bit_for_bit(kernel):
    # the heap order hangs on these bits; the C library's hypot differs
    # from math.hypot on about one pair in a hundred
    for x, y in _hypot_batch():
        got, ref = kernel.py_hypot(x, y), math.hypot(x, y)
        assert _bits([got]) == _bits([ref]) or math.isnan(got) and math.isnan(ref), (x, y)


def _same_on_both_paths(site) -> surface.RefinedContact:
    got = refine_contact(*site)
    ref = _python_loop(refine_contact, *site)
    assert (_bits(got.point), got.refined) == (_bits(ref.point), ref.refined)
    return got


@st.composite
def nan_window_pairs(draw):
    """A window pair with one coordinate of a window's vertex NaN."""
    _, a, b, window, tol = draw(window_pairs())
    i, j = closest_pair(a, b)
    poly, center = draw(st.sampled_from([(a, i), (b, j)]))
    pts = poly.points.copy()
    k = draw(st.integers(max(0, center - window), min(len(pts) - 1, center + window)))
    pts[k, draw(st.integers(0, 1))] = math.nan
    a, b = (Polyline(pts), b) if poly is a else (a, Polyline(pts))
    return a, b, i, j, window, tol


@settings(max_examples=100, deadline=None)
@given(window_pairs())
def test_property_kernel_gives_the_python_loops_bits(kernel, pair):
    _, a, b, window, tol = pair
    _same_on_both_paths((a, b, *closest_pair(a, b), window, tol))


@settings(max_examples=100, deadline=None)
@given(nan_window_pairs())
def test_property_kernel_gives_the_python_loops_bits_with_a_nan_vertex(kernel, site):
    # NaN keys compare false both ways: the pops follow heapq's order
    _same_on_both_paths(site)


@pytest.mark.parametrize("theta, phi", [(60, 25), (45, 20), (70, 30)])
def test_every_scene_site_gives_the_same_bits_on_both_paths(kernel, theta, phi):
    view = Projection(math.radians(theta), math.radians(phi))
    paraboloid = SceneConfig(wires_v=tuple(k * math.pi / 3 for k in range(6)))
    refined = 0
    for s, cfg in ((paraboloid_surface(), paraboloid), (mobius(), SceneConfig())):
        sites, _ = _scene_sites(s, cfg, view)
        assert sites
        refined += sum(_same_on_both_paths(site).refined for site in sites)
    assert refined > 0


def test_each_piece_is_split_once_per_best_first_search(monkeypatch):
    cfg = SceneConfig(wires_v=tuple(k * math.pi / 3 for k in range(6)))
    sites, _ = _scene_sites(paraboloid_surface(), cfg)
    split = []
    halves = surface._halves

    def counted(p):
        split.append(b"".join(_bits(p[:12])))
        return halves(p)

    made = []
    compiled = surface._compiled_best_first

    def counted_kernel(dll, pieces_a, pieces_b, *rest):
        found, n = compiled(dll, pieces_a, pieces_b, *rest)
        made.append(n - len(pieces_a) - len(pieces_b))
        return found, n

    monkeypatch.setattr(surface, "_halves", counted)
    monkeypatch.setattr(surface, "_compiled_best_first", counted_kernel)
    dll = surface._load_kernel()
    total = 0
    for site in sites:
        del split[:], made[:]
        _python_loop(refine_contact, *site)
        # a split piece keeps its halves for every pair that meets it
        assert len(split) == len(set(split))
        total += len(split)
        if dll:
            # the kernel makes two pieces for each piece the loop splits
            refine_contact(*site)
            assert sum(made) == 2 * len(split)
    assert len(sites) == 15
    assert total > 0


def test_budget_exhausting_searches_peak_no_higher_than_the_reference():
    # the Moebius band's rims graze its silhouettes: the fits never
    # cross, and the best-first search spends all REFINE_POPS pops
    sites, report = _scene_sites(mobius(), SceneConfig())
    rims = {id(c.polyline) for c in report.boundaries}
    folds = {id(c.polyline) for c in report.silhouettes}
    grazing = [
        s for s in sites
        if id(s[0]) in rims and id(s[1]) in folds and not refine_contact(*s).refined
    ]

    def peak(solve, site) -> int:
        # a full collection empties the interpreter's free lists, so the
        # traced call pays for every object it makes
        gc.collect()
        tracemalloc.start()
        try:
            solve(*site)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the best-first search keeps every split piece's halves, which must
    # cost no more than the pieces the reference makes again and again;
    # kept by the depth-first search too, they would peak near twice
    # the reference (5.9 against 3.0 MB).  tracemalloc sees no memory
    # of refine.c's, so the Python loop is measured
    assert len(grazing) == 5
    for site in grazing:
        python_peak = _python_loop(peak, refine_contact, site)
        assert python_peak <= peak(reference_refine_contact, site)


def _bits(xs) -> list[bytes]:
    return [struct.pack("<d", x) for x in xs]


def _flat(row) -> tuple[float, ...]:
    """A control row's coordinates, x0, y0, ..., x3, y3."""
    return tuple(c for p in row for c in p)


def _box(row) -> tuple[float, ...]:
    """The control points' box (xmin, ymin, xmax, ymax) by min and max."""
    xs, ys = [x for x, _ in row], [y for _, y in row]
    return (min(xs), min(ys), max(xs), max(ys))


# control coordinates: the extremes the kernel must carry through
# unchanged, signed zeros included, and ordinary floats
control = st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]
) | st.floats(-1e300, 1e300)
cubic = st.lists(st.tuples(control, control), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(cubic)
def test_flat_kernel_matches_bezier_subdivide_bit_for_bit(b):
    # a piece: control coordinates and their box, bit for bit, then the
    # box diagonal, then two empty slots for its halves; its halves are
    # geom.split's
    piece = _piece(*_flat(b))
    for got, ref in [(piece, b), *zip(_halves(piece), split(b, 0.5))]:
        assert _bits(got[:12]) == _bits(_flat(ref) + _box(ref))
        diagonal = math.hypot(got[10] - got[8], got[11] - got[9])
        assert _bits(got[12:13]) == _bits([diagonal])
        assert got[13:] == [None, None]


def _segment_dists_loop(poly: Polyline, q: Point2) -> list[tuple[float, float]]:
    """Reference: (param, distance) of q's foot on each segment, one at a time.

    The fraction is the textbook projection on the segment divided by
    2**e, its larger component's binary exponent (exact), so that its
    squares neither under- nor overflow; the distance is math.hypot's.
    """
    out = []
    pts = vertices(poly)
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        vx, vy = b.x - a.x, b.y - a.y
        e = math.frexp(max(abs(vx), abs(vy)))[1]
        ux, uy = math.ldexp(vx, -e), math.ldexp(vy, -e)
        L2 = ux * ux + uy * uy
        if L2 == 0.0:
            t = 0.0
        else:
            t = math.ldexp(((q.x - a.x) * ux + (q.y - a.y) * uy) / L2, -e)
        t = max(0.0, min(1.0, t))
        p = Point2(a.x + vx * t, a.y + vy * t)
        out.append((i + t, p.dist(q)))
    return out


def _locate_param_loop(poly: Polyline, q: Point2) -> tuple[float, float]:
    """Reference: the scalar nearest-point loop (first strict minimum)."""
    best = (0.0, math.inf)
    for param, d in _segment_dists_loop(poly, q):
        if d < best[1]:
            best = (param, d)
    return best


# figure coordinates: [-10, 10] cm at a 1e-5 resolution, and the same
# grid scaled down to where squares of differences underflow
coord = st.builds(
    lambda k, scale: k * scale,
    st.integers(-10**6, 10**6),
    st.sampled_from([1e-5, 2.0**-500, 2.0**-700, 2.0**-900]),
)
point = st.builds(Point2, coord, coord)


@settings(max_examples=200, deadline=None)
@given(st.lists(point, min_size=2, max_size=30), point)
# a point 3e-168 off a segment, whose squared distance underflows
@example([Point2(0.0, 0.0), Point2(1.0, 0.0)], Point2(0.5, 3e-168))
# a segment 1.6e-208 long, whose squared length underflows
@example([Point2(0.0, 0.0), Point2(1.6e-208, 0.0)], Point2(1.0, 0.0))
def test_locate_param_matches_the_scalar_loop(chain, q):
    chain = [p for k, p in enumerate(chain) if k == 0 or p != chain[k - 1]]
    assume(len(chain) >= 2)
    poly = Polyline(tuple(chain))
    params, dists = _locate_params(poly, np.array([q, *chain]))
    param, dist = float(params[0]), float(dists[0])
    ref_param, ref_dist = _locate_param_loop(poly, q)
    # located together or one at a time, each point gets the same bits
    for k, p in enumerate([q, *chain]):
        one_param, one_dist = _locate_params(poly, np.array([p]))
        assert _bits([params[k], dists[k]]) == _bits([one_param[0], one_dist[0]])
    assert math.isclose(dist, ref_dist, rel_tol=1e-12)
    if param != ref_param:
        # only a tie may differ: a chain that passes the nearest point
        # twice, where hypot and sqrt round the two distances apart
        seg = min(int(param), len(chain) - 2)
        seg_param, seg_dist = _segment_dists_loop(poly, q)[seg]
        assert seg_param == param
        assert math.isclose(seg_dist, ref_dist, rel_tol=1e-12)


def test_locate_params_in_blocks_gives_the_same_bits(monkeypatch):
    rng = np.random.default_rng(7)
    poly = Polyline(rng.random((40, 2)))
    points = rng.random((25, 2))
    whole = _locate_params(poly, points)
    # 100 pairs over 40 vertices: blocks of 2 points, the last of 1
    monkeypatch.setattr(surface, "FEET_BLOCK", 100)
    blocks = _locate_params(poly, points)
    for a, b in zip(whole, blocks):
        assert len(a) == len(points) and _bits(a) == _bits(b)
    assert [len(a) for a in _locate_params(poly, np.empty((0, 2)))] == [0, 0]


@pytest.mark.parametrize(
    "chain, q, t, dist",
    [
        # the two underflow cases above, with their exact answers
        ([(0.0, 0.0), (1.0, 0.0)], (0.5, 3e-168), 0.5, 3e-168),
        ([(0.0, 0.0), (1.6e-208, 0.0)], (1.0, 0.0), 1.0, 1.0),
        ([(0.0, 0.0), (1.6e-208, 0.0)], (0.8e-208, 1e-208), 0.5, 1e-208),
        # a zero-length segment keeps t = 0
        ([(2.0, 3.0), (2.0, 3.0)], (5.0, 7.0), 0.0, 5.0),
        # past the double range on the far side of a subnormal segment
        ([(0.0, 0.0), (1e-310, 0.0)], (1e300, 0.0), 1.0, 1e300),
    ],
)
def test_segment_feet_scale_exactly(chain, q, t, dist):
    chain = np.array(chain)
    got_t, got_dist = _feet(np.array([q])[:, None], chain[:-1], chain[1:])
    assert (float(got_t[0, 0]), float(got_dist[0, 0])) == (t, dist)


class TestVisibility:
    def test_buried_segment_is_hidden(self):
        s = paraboloid_surface()
        c = SpaceCurve([(0.0, 0.0, 0.0), (0.0, 0.0, 0.5)], label="probe")
        tagged = classify_visibility(
            project_curve(c, VIEW), c.label, [], OcclusionTester(s, VIEW)
        )
        ivs = tagged.intervals()
        assert len(ivs) == 1
        assert ivs[0][1] is True

    def test_distant_segment_is_visible(self):
        s = paraboloid_surface()
        c = SpaceCurve([(10.0, 10.0, 0.0), (11.0, 11.0, 0.0)], label="far")
        tagged = classify_visibility(
            project_curve(c, VIEW), c.label, [], OcclusionTester(s, VIEW)
        )
        assert tagged.intervals()[0][1] is False

    def test_cut_splits_intervals(self):
        s = paraboloid_surface()
        c = SpaceCurve(
            [(x, 0.0, 0.0) for x in np.linspace(-3, 3, 61)], label="chord"
        )
        poly = project_curve(c, VIEW)
        tagged = classify_visibility(poly, c.label, [30.0], OcclusionTester(s, VIEW))
        assert len(tagged.intervals()) == 2

    def test_occlusion_tester_covers(self):
        s = paraboloid_surface()
        tester = OcclusionTester(s, VIEW)
        qx, qy, depth = project((0.0, 0.0, 0.0), VIEW)
        roots, candidates = tester.covers(Point2(qx, qy))
        assert candidates > 0
        assert roots
        # the dome warps over the origin: some sheet is nearer the eye
        assert any(
            project(s.point(u, v), VIEW)[2] > depth + 1e-6 for u, v in roots
        )


class TestSceneStructure:
    def test_paraboloid_counts(self):
        cfg = SceneConfig(wires_v=tuple(k * math.pi / 3 for k in range(6)))
        scene, report = build_surface_scene(paraboloid_surface(), VIEW, cfg)
        assert len(report.silhouettes) == 1
        assert len(report.boundaries) == 1
        assert len(report.wires) == 6
        for w in report.wires:
            assert len(w.intervals()) >= 2
        hidden = sum(
            1 for w in report.wires for _, h in w.intervals() if h
        )
        assert hidden >= 1

    def test_each_curve_projected_and_each_function_compiled_once(self, monkeypatch):
        # the README paraboloid draws 11 curves (rim, silhouette, 6 wires,
        # 3 axes); it compiles J alone, and (x, y, z), (X, Y) and the 4
        # partials of X, Y as one program each
        calls = {"project_curve": 0, "compile_fn": 0, "compile_many": 0}

        def counted(name):
            real = getattr(surface, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(surface, name, counted(name))
        cfg = SceneConfig(wires_v=tuple(k * math.pi / 3 for k in range(6)))
        build_surface_scene(paraboloid_surface(), VIEW, cfg)
        assert calls == {"project_curve": 11, "compile_fn": 1, "compile_many": 3}

    def test_scene_is_deterministic(self):
        cfg = SceneConfig(wires_v=(0.0, math.pi))
        a, _ = build_surface_scene(paraboloid_surface(), VIEW, cfg)
        b, _ = build_surface_scene(paraboloid_surface(), VIEW, cfg)
        assert emit_latex(a) == emit_latex(b)

    def test_hidden_can_be_omitted(self):
        cfg = SceneConfig(wires_v=(math.pi,), hidden_style="omit", axes=False)
        scene, _ = build_surface_scene(paraboloid_surface(), VIEW, cfg)
        assert all(item.style is not Style.DASHED for item in scene.items)

    def test_axes_toggle(self):
        scene_on, rep_on = build_surface_scene(
            paraboloid_surface(), VIEW, SceneConfig()
        )
        scene_off, rep_off = build_surface_scene(
            paraboloid_surface(), VIEW, SceneConfig(axes=False)
        )
        assert any(t.label.startswith("axis:") for t in rep_on.extras)
        assert not rep_off.extras
        assert any(item.label is not None for item in scene_on.items)

    def test_newton_warnings_come_in_curve_order(self, monkeypatch, caplog):
        # the solves on the rim and on one wire are made to fail, and the
        # rim finishes last on the scene's pool, so a warning logged by
        # the worker itself would come out of order
        delay = {"boundary:u=2": 0.3, "wire:v=3.14159": 0.1}
        real = surface.classify_visibility

        def failing_late(poly, label, params, tester):
            time.sleep(delay.get(label, 0.0))
            if label in delay:
                tester = copy.copy(tester)
                tester.covers = lambda q: ([], 1)  # candidate cells, no root
            return real(poly, label, params, tester)

        monkeypatch.setattr(surface, "classify_visibility", failing_late)
        cfg = SceneConfig(wires_v=(0.0, math.pi), grid=80, samples=60)
        with caplog.at_level(logging.WARNING, logger="splinefig.surface"):
            _, report = build_surface_scene(paraboloid_surface(), VIEW, cfg)
        # the scene draws boundaries, silhouettes, wires, then extras
        drawn = (report.boundaries, report.silhouettes, report.wires, report.extras)
        failed = [tc.label for part in drawn for tc in part if tc.newton_failed]
        logged = [
            r.args[0] for r in caplog.records if "newton occlusion" in r.getMessage()
        ]
        assert failed == ["boundary:u=2", "wire:v=3.14159"]
        assert logged == failed

    def test_self_crossing_outline_is_cut_at_both_passes(self):
        # this torus silhouette crosses itself at segment pairs (8, 85)
        # and (162, 239); locating each crossing point on the nearest
        # segment once cut it at 8.912 and 239.088 only
        torus = ParametricSurface.from_strings(
            "(2+cos(u))*cos(v)",
            "(2+cos(u))*sin(v)",
            "sin(u)",
            (0.0, 2 * math.pi),
            (0.0, 2 * math.pi),
        )
        view = Projection(math.radians(45), math.radians(40))
        _, report = build_surface_scene(torus, view, SceneConfig(axes=False))
        outline = report.silhouettes[0]
        assert outline.label == "silhouette:0"
        res = intersect_projected(outline.polyline, outline.polyline)
        assert [(c.ia, c.ib) for c in res.crossings] == [(8, 85), (162, 239)]
        assert outline.cuts == res.params
        assert [round(c, 3) for c in outline.cuts] == [8.912, 85.088, 162.912, 239.088]
        # the stretch between the second and third cut is in front, as a
        # depth test at its vertices 86 to 162 finds it
        assert len(outline.hidden) == 5 and not outline.hidden[2]

    @pytest.mark.parametrize(
        "scale, limit",
        [
            # the n x m box masks and distance arrays of every curve pair
            # once peaked at 198 MB of traced memory here
            (1.0, 20e6),
            # every vertex/segment pair within 2*CONTACT_TOL: a window
            # test over all of them at once peaked at 1.2 GB
            (0.01, 40e6),
        ],
    )
    def test_readme_scene_memory_is_linear_in_samples(self, scale, limit, monkeypatch):
        # one worker, so the peak does not depend on the host's core count
        monkeypatch.setattr(surface, "ThreadPoolExecutor", lambda: ThreadPoolExecutor(1))
        s = ParametricSurface.from_strings(
            f"{scale}*u*cos(v)", f"{scale}*u*sin(v)", f"{scale}*(4-u^2)",
            (0.0, 2.0), (0.0, 2 * math.pi),
        )
        cfg = SceneConfig(wires_v=tuple(k * math.pi / 3 for k in range(6)), samples=1000)
        tracemalloc.start()
        try:
            build_surface_scene(s, VIEW, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_wire_along_an_outline_is_scanned_in_linear_memory(self):
        # the wire u = 1.998 runs within CONTACT_TOL of the rim u = 2
        # all round; at 10000 samples a window test over every pair
        # below CONTACT_TOL at once peaked at about 400 MB
        s = paraboloid_surface()
        wire = project_curve(wires(s, fixed_u=[1.998], samples=10000)[0], VIEW)
        (rim,) = (project_curve(c, VIEW) for c in boundary_curves(s, samples=10000))
        tracemalloc.start()
        try:
            res = intersect_projected(wire, rim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.contacts and peak < 40e6

    def test_mobius_full_band_renders(self):
        scene, report = build_surface_scene(mobius(), VIEW, SceneConfig())
        assert [c.label for c in report.boundaries] == [
            "boundary:u=-0.4",
            "boundary:u=0.4",
        ]
        text = emit_latex(scene)
        assert text.startswith("{\\unitlength=1cm%")
        assert "\\polyline" in text


@pytest.fixture(scope="module", params=["paraboloid", "mobius"])
def default_scene(request):
    """A default scene's report and the messages it logged."""
    surf, cfg = {
        "paraboloid": (
            paraboloid_surface(),
            SceneConfig(wires_v=tuple(k * math.pi / 3 for k in range(6))),
        ),
        "mobius": (mobius(), SceneConfig()),
    }[request.param]
    messages: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("splinefig.surface")
    logger.addHandler(handler)
    try:
        _, report = build_surface_scene(surf, VIEW, cfg)
    finally:
        logger.removeHandler(handler)
    return report, messages


def _tagged(report):
    return [
        *report.boundaries, *report.silhouettes, *report.wires, *report.extras
    ]


def test_default_scenes_log_no_newton_failure(default_scene):
    # the axes lie off the surface, where finding no preimage is no failure
    report, messages = default_scene
    assert not any("newton occlusion" in m for m in messages)
    assert not any(tc.newton_failed for tc in _tagged(report))


def test_no_drawn_interval_of_a_default_scene_is_a_stub(default_scene):
    report, _ = default_scene
    for tc in _tagged(report):
        for sub, _ in tc.intervals():
            pts = vertices(sub)
            length = sum(a.dist(b) for a, b in zip(pts, pts[1:]))
            assert length > 10 * surface.REFINE_TOL, tc.label


class TestContactDemo:
    def test_refinement_beats_the_cluster(self):
        res = contact_demo(math.radians(60), math.radians(25))
        assert res.refined_ok
        err = Point2(*res.refined).dist(res.analytic)
        assert err < 1e-6
        assert res.cluster_spread > err
        assert res.crossings >= 1

    @pytest.mark.parametrize(
        "theta, phi, samples", [(60, 25, 100), (60, 25, 7), (-90, 25, 300), (30, 10, 1000)]
    )
    def test_closest_pair_and_cluster_are_the_dense_ones(self, theta, phi, samples):
        # the n x m vertex-pair matrix the demo once built, as reference
        proj = Projection(math.radians(theta), math.radians(phi))
        sil = max(silhouette(paraboloid_surface(), proj, 200), key=lambda c: len(c.xyz))
        axis = np.zeros((samples + 1, 3))
        axis[:, 1] = steps(-4.0, 4.0, samples)
        pa = project_curve(SpaceCurve(axis, None, "axis:y"), proj)
        pb = project_curve(sil, proj)
        d2 = ((pa.points[:, None, :] - pb.points[None, :, :]) ** 2).sum(axis=2)
        i, j = divmod(int(np.argmin(d2)), d2.shape[1])
        pairs = np.argwhere(np.sqrt(d2) <= max(2.0 * math.sqrt(float(d2[i, j])), 1e-12))
        cluster = 0.5 * (pa.points[pairs[:, 0]] + pb.points[pairs[:, 1]])
        res = contact_demo(math.radians(theta), math.radians(phi), samples=samples)
        assert _bits(res.cluster.ravel()) == _bits(cluster.ravel())
        assert res.refined == refine_contact(pa, pb, i, j).point

    def test_analytic_point_on_the_outline_parabola(self):
        res = contact_demo(math.radians(60), math.radians(25))
        phi = math.radians(25)
        t = math.tan(phi)
        x, y = res.analytic
        want = (t / 2) * math.sin(phi) + (4 - t * t / 4) * math.cos(phi) \
            - math.cos(phi) * x * x
        assert y == pytest.approx(want, abs=1e-9)

    def test_analytic_point_is_a_reference_only_on_the_drawn_axis(self):
        assert contact_demo(math.radians(60), math.radians(25)).analytic_drawn
        phi = math.radians(25)
        res = contact_demo(
            math.radians(-90), phi, grid=40, samples=300, window=0, tol=0.01
        )
        # the root lies on the outline, past the axis end y = 4 at Y = 4 sin(phi)
        assert not res.analytic_drawn
        assert res.analytic[1] > 4 * math.sin(phi)

    def test_analytic_root_of_a_steep_axis(self):
        # at theta = -90 degrees the projected y axis has slope about
        # 7e15, and the textbook root -slope + sqrt(disc) cancels to 0
        theta, phi = math.radians(-90), math.radians(25)
        res = contact_demo(theta, phi, grid=40, samples=300, window=0, tol=0.01)
        t = math.tan(phi)
        c0 = (t / 2) * math.sin(phi) + (4 - t * t / 4) * math.cos(phi)
        slope = -math.tan(theta) * math.sin(phi)
        x = res.analytic[0]
        assert x > 0.0
        assert abs(math.cos(phi) * x * x + slope * x - c0) <= 1e-12 * abs(c0)
