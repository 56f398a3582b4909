import logging
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from splinefig.geom import Point2, Point3, Polyline, closest_approach
from splinefig import surface
from splinefig.render import Style, emit_latex
from splinefig.expr import DomainError
from splinefig.surface import (
    _jacobian_fn,
    _locate_param,
    OcclusionTester,
    ParametricSurface,
    Projection,
    SceneConfig,
    SpaceCurve,
    SurfaceError,
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
        q, depth = project(Point3(1, 0, 0), p)
        assert (q.x, q.y, depth) == pytest.approx((0.0, 0.0, 1.0))
        q, depth = project(Point3(0, 1, 0), p)
        assert (q.x, q.y, depth) == pytest.approx((1.0, 0.0, 0.0))
        q, depth = project(Point3(0, 0, 1), p)
        assert (q.x, q.y, depth) == pytest.approx((0.0, 1.0, 0.0))

    def test_quarter_turn(self):
        p = Projection(math.pi / 2, 0.0)
        q, depth = project(Point3(1, 0, 0), p)
        assert (q.x, q.y, depth) == pytest.approx((-1.0, 0.0, 0.0))

    def test_linearity(self):
        a, b = Point3(1.0, -2.0, 0.5), Point3(0.3, 0.7, -1.1)
        qa, da = project(a, VIEW)
        qb, db = project(b, VIEW)
        qs, ds = project(a + b, VIEW)
        assert qs.dist(qa + qb) < 1e-12
        assert ds == pytest.approx(da + db, abs=1e-12)


class TestSurfaceBasics:
    def test_point_evaluation(self):
        s = paraboloid_surface()
        p = s.point(1.0, 0.0)
        assert (p.x, p.y, p.z) == pytest.approx((1.0, 0.0, 3.0))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ParametricSurface.from_strings("u", "v", "0", (1, 1), (0, 1))

    def test_projected_curve_drops_repeats(self):
        c = SpaceCurve((Point3(0, 0, 0), Point3(0, 0, 0), Point3(1, 0, 0)))
        poly = project_curve(c, VIEW)
        assert poly is not None
        assert len(poly.points) == 2

    def test_projected_point_curve_is_none(self):
        c = SpaceCurve((Point3(1, 1, 1), Point3(1, 1, 1)))
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
        largest = max(comps, key=lambda c: len(c.points))
        radii = [
            project(p, VIEW)[0].norm() for p in largest.points
        ]
        assert max(abs(r - 1.0) for r in radii) < 1e-3

    def test_paraboloid_single_component(self):
        comps = silhouette(paraboloid_surface(), VIEW)
        assert len(comps) == 1
        # the fold along u = 0 collapses to the apex and must not leak
        # through as a second component
        assert len(comps[0].points) > 100

    def test_carries_uv_coordinates(self):
        comps = silhouette(paraboloid_surface(), VIEW)
        assert comps[0].uv is not None
        assert len(comps[0].uv) == len(comps[0].points)


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
        assert all(len(w.points) == 21 for w in ws)

    def test_wire_lies_on_surface(self):
        s = paraboloid_surface()
        (w,) = wires(s, fixed_v=[1.0], samples=10)
        for p, (u, v) in zip(w.points, w.uv):
            assert p.dist(s.point(u, v)) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(SurfaceError):
            wires(paraboloid_surface(), fixed_u=[3.0])


class TestIntersectProjected:
    def test_perpendicular_crossing(self):
        a = dense_line((-1, 0), (1, 0))
        b = dense_line((0.123, -1), (0.123, 1))
        res = intersect_projected(a, b)
        assert len(res.crossings) == 1
        c = res.crossings[0]
        assert c.point.dist(Point2(0.123, 0.0)) < 1e-12
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

        brute = []
        for i in range(len(a.points) - 1):
            for j in range(len(b.points) - 1):
                hit = seg_cross(
                    a.points[i], a.points[i + 1], b.points[j], b.points[j + 1]
                )
                if hit is not None and all(
                    hit.dist(k) > 1e-9 for k in brute
                ):
                    brute.append(hit)
        assert len(res.crossings) == len(brute)
        for c in res.crossings:
            assert min(c.point.dist(k) for k in brute) < 1e-9

    def test_tangent_circles_report_contact(self):
        # externally tangent at the origin; no transversal crossing
        t = np.linspace(0, 2 * math.pi, 720)
        a = Polyline(tuple(Point2(1 + math.cos(x), math.sin(x)) for x in t))
        b = Polyline(tuple(Point2(-1 + math.cos(x), math.sin(x)) for x in t))
        res = intersect_projected(a, b, tol=0.02)
        assert res.contacts
        site = min(res.contacts, key=lambda s: s.point.norm())
        assert site.point.norm() < 0.05

    def test_self_intersection(self):
        # a figure eight crosses itself once at the origin
        t = np.linspace(0, 2 * math.pi, 600)
        fig8 = Polyline(
            tuple(Point2(math.sin(2 * x), math.sin(x)) for x in t)
        )
        res = intersect_projected(fig8, fig8)
        assert len(res.crossings) == 1
        assert res.crossings[0].point.norm() < 1e-9


class TestRefineContact:
    def test_transversal_lines_exact(self):
        a = dense_line((-1, -1), (1, 1), 40)
        b = dense_line((-1, 1), (1, -1), 40)
        i, j, _ = closest_approach(a, b)
        rc = refine_contact(a, b, i, j)
        assert rc.refined
        assert rc.point.dist(Point2(0, 0)) < 1e-9

    def test_tangent_circles(self):
        t = np.linspace(0, 2 * math.pi, 720)
        a = Polyline(tuple(Point2(1 + math.cos(x), math.sin(x)) for x in t))
        b = Polyline(tuple(Point2(-1 + math.cos(x), math.sin(x)) for x in t))
        i, j, _ = closest_approach(a, b)
        rc = refine_contact(a, b, i, j)
        assert rc.refined
        assert rc.point.dist(Point2(0, 0)) < 1e-6

    def test_refined_point_is_near_both_windows(self):
        t = np.linspace(0, 2 * math.pi, 720)
        a = Polyline(tuple(Point2(1 + math.cos(x), math.sin(x)) for x in t))
        b = Polyline(tuple(Point2(-1 + math.cos(x), math.sin(x)) for x in t))
        i, j, _ = closest_approach(a, b)
        rc = refine_contact(a, b, i, j, tol=1e-7)
        if rc.refined:
            da = min(rc.point.dist(p) for p in a.points)
            db = min(rc.point.dist(p) for p in b.points)
            # within a vertex spacing of both curves
            assert da < 0.02 and db < 0.02

    def test_coincident_curves_bail_out(self):
        a = dense_line((0, 0), (1, 0), 60)
        rc = refine_contact(a, a, 30, 30)
        assert not rc.refined
        assert rc.point.dist(a.points[30]) < 1e-12

    def test_disjoint_windows_unrefined(self):
        a = dense_line((0, 0), (1, 0), 40)
        b = dense_line((0, 5), (1, 5), 40)
        rc = refine_contact(a, b, 20, 20)
        assert not rc.refined


def _segment_dists_loop(poly: Polyline, q: Point2) -> list[tuple[float, float]]:
    """Reference: (param, distance) of q's foot on each segment, one at a time."""
    out = []
    pts = poly.points
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        vx, vy = b.x - a.x, b.y - a.y
        L2 = vx * vx + vy * vy
        t = 0.0 if L2 == 0.0 else ((q.x - a.x) * vx + (q.y - a.y) * vy) / L2
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


# figure coordinates: [-10, 10] cm at a 1e-5 resolution.  (The vectorised
# form squares differences, which underflow below about 1e-154.)
coord = st.integers(-10**6, 10**6).map(lambda k: k / 1e5)
point = st.builds(Point2, coord, coord)


@settings(max_examples=200, deadline=None)
@given(st.lists(point, min_size=2, max_size=30), point)
def test_locate_param_matches_the_scalar_loop(chain, q):
    chain = [p for k, p in enumerate(chain) if k == 0 or p != chain[k - 1]]
    assume(len(chain) >= 2)
    poly = Polyline(tuple(chain))
    param, dist = _locate_param(poly, q)
    ref_param, ref_dist = _locate_param_loop(poly, q)
    assert math.isclose(dist, ref_dist, rel_tol=1e-12)
    if param != ref_param:
        # only a tie may differ: a chain that passes the nearest point
        # twice, where hypot and sqrt round the two distances apart
        seg = min(int(param), len(chain) - 2)
        seg_param, seg_dist = _segment_dists_loop(poly, q)[seg]
        assert seg_param == param
        assert math.isclose(seg_dist, ref_dist, rel_tol=1e-12)


class TestVisibility:
    def test_buried_segment_is_hidden(self):
        s = paraboloid_surface()
        c = SpaceCurve(
            (Point3(0, 0, 0), Point3(0, 0, 0.5)), label="probe"
        )
        tagged = classify_visibility(c, s, VIEW, [])
        ivs = tagged.intervals()
        assert len(ivs) == 1
        assert ivs[0][1] is True

    def test_distant_segment_is_visible(self):
        s = paraboloid_surface()
        c = SpaceCurve((Point3(10, 10, 0), Point3(11, 11, 0)), label="far")
        tagged = classify_visibility(c, s, VIEW, [])
        assert tagged.intervals()[0][1] is False

    def test_cut_splits_intervals(self):
        s = paraboloid_surface()
        c = SpaceCurve(
            tuple(Point3(x, 0.0, 0.0) for x in np.linspace(-3, 3, 61)),
            label="chord",
        )
        poly = project_curve(c, VIEW)
        mid = poly.points[30]
        tagged = classify_visibility(c, s, VIEW, [mid])
        assert len(tagged.intervals()) == 2

    def test_occlusion_tester_covers(self):
        s = paraboloid_surface()
        tester = OcclusionTester(s, VIEW)
        q, depth = project(Point3(0.0, 0.0, 0.0), VIEW)
        roots, candidates = tester.covers(q)
        assert candidates > 0
        assert roots
        # the dome warps over the origin: some sheet is nearer the eye
        assert any(tester.depth_at(u, v) > depth + 1e-6 for u, v in roots)


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
        # the axes finish in reverse order on the scene's pool: the later
        # axis sleeps less, so a warning logged by the worker itself
        # would come out of order
        delay = {"axis:x": 0.3, "axis:y": 0.2, "axis:z": 0.1}
        real = surface.classify_visibility

        def reversed_finish(curve, *args):
            time.sleep(delay.get(curve.label, 0.0))
            return real(curve, *args)

        monkeypatch.setattr(surface, "classify_visibility", reversed_finish)
        cfg = SceneConfig(wires_v=(0.0, math.pi), grid=80, samples=60)
        with caplog.at_level(logging.WARNING, logger="splinefig.surface"):
            _, report = build_surface_scene(paraboloid_surface(), VIEW, cfg)
        # the scene draws boundaries, silhouettes, wires, then extras
        drawn = (report.boundaries, report.silhouettes, report.wires, report.extras)
        failed = [tc.label for part in drawn for tc in part if tc.newton_failed]
        logged = [
            r.args[0] for r in caplog.records if "newton occlusion" in r.getMessage()
        ]
        assert len(failed) >= 2
        assert logged == failed

    def test_mobius_full_band_renders(self):
        scene, report = build_surface_scene(mobius(), VIEW, SceneConfig())
        assert [c.label for c in report.boundaries] == [
            "boundary:u=-0.4",
            "boundary:u=0.4",
        ]
        text = emit_latex(scene)
        assert text.startswith("{\\unitlength=1cm%")
        assert "\\polyline" in text


class TestContactDemo:
    def test_refinement_beats_the_cluster(self):
        res = contact_demo(math.radians(60), math.radians(25))
        assert res.refined_ok
        err = res.refined.dist(res.analytic)
        assert err < 1e-6
        assert res.cluster_spread > err
        assert res.crossings >= 1

    def test_analytic_point_on_the_outline_parabola(self):
        res = contact_demo(math.radians(60), math.radians(25))
        phi = math.radians(25)
        t = math.tan(phi)
        x = res.analytic.x
        y = (t / 2) * math.sin(phi) + (4 - t * t / 4) * math.cos(phi) \
            - math.cos(phi) * x * x
        assert res.analytic.y == pytest.approx(y, abs=1e-9)
