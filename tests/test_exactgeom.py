from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import _plane3
from shedpoly.exactgeom import (
    DegenerateFace,
    Plane,
    Point2,
    Point3,
    above_plane,
    ceil_div,
    floor_plane,
    orient2d,
    plane_through,
    slopes_decrease,
)


def test_orient2d_examples():
    assert orient2d(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 1
    assert orient2d(Point2(0, 0), Point2(1, 1), Point2(2, 2)) == 0
    assert orient2d(Point2(0, 0), Point2(0, 1), Point2(1, 0)) == -1


def test_orient2d_antisymmetric_random():
    rng = random.Random(20260815)
    for _ in range(500):
        p, q, r = (
            Point2(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3)
        )
        assert orient2d(p, q, r) == -orient2d(q, p, r)


def test_slope_examples():
    # slopes 1, 1/2, 0 and -1 along x = -1, 0, 2, 3, 4
    p, q, r, t, w = Point2(-1, -1), Point2(0, 0), Point2(2, 1), Point2(3, 1), Point2(4, 0)
    assert slopes_decrease(p, q, r) and slopes_decrease(q, r, t) and slopes_decrease(r, t, w)
    # a rising slope, and equal slopes, are not a strict decrease
    assert not slopes_decrease(Point2(0, 0), Point2(1, 0), Point2(2, 1))
    assert not slopes_decrease(Point2(0, 0), Point2(1, 1), Point2(3, 3))


def test_slope_translation_invariant_random():
    rng = random.Random(7)
    for _ in range(300):
        p = Point2(rng.randint(-30, 30), rng.randint(-30, 30))
        q = Point2(p.x + rng.randint(1, 20), rng.randint(-30, 30))
        r = Point2(q.x + rng.randint(1, 20), rng.randint(-30, 30))
        tx, ty = rng.randint(-100, 100), rng.randint(-100, 100)
        moved = (Point2(v.x + tx, v.y + ty) for v in (p, q, r))
        want = Fraction(r.y - q.y, r.x - q.x) < Fraction(q.y - p.y, q.x - p.x)
        assert slopes_decrease(p, q, r) == slopes_decrease(*moved) == want


def test_plane_through_examples():
    # z = y, z = 5 and z = x + y, as det*z = A*x + B*y + D with det > 0
    assert plane_through(Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 1)) == Plane(
        1, 0, 1, 0
    )
    assert plane_through(Point3(0, 0, 5), Point3(1, 0, 5), Point3(0, 1, 5)) == Plane(
        1, 0, 0, 5
    )
    assert plane_through(Point3(0, 0, 0), Point3(2, 0, 2), Point3(0, 3, 3)) == Plane(
        6, 6, 6, 0
    )
    # the clockwise order gives the same normalised plane
    assert plane_through(Point3(0, 0, 0), Point3(0, 3, 3), Point3(2, 0, 2)) == Plane(
        6, 6, 6, 0
    )


def test_plane_through_degenerate():
    with pytest.raises(DegenerateFace):
        plane_through(Point3(0, 0, 0), Point3(1, 1, 5), Point3(2, 2, 9))


def test_plane_interpolates_random():
    rng = random.Random(99)
    done = 0
    while done < 200:
        pts = [
            Point3(rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(-1000, 1000))
            for _ in range(3)
        ]
        try:
            pl = plane_through(*pts)
        except DegenerateFace:
            continue
        assert pl.det > 0
        for p in pts:
            assert above_plane(pl, *p) == 0
            assert floor_plane(pl, p.x, p.y) == p.z
        done += 1


coord = st.integers(-10**6, 10**6)
height = st.integers(-(2**4000), 2**4000)
point3 = st.builds(Point3, coord, coord, height)


@settings(max_examples=200, deadline=None)
@given(point3, point3, point3, coord, coord, height)
@example(Point3(0, 0, 3**2500), Point3(7, 1, -(5**1700)), Point3(2, 9, 1), 4, -3, 2**3999)
def test_integer_plane_agrees_with_fraction_plane(p1, p2, p3, x, y, z):
    assume(orient2d(p1, p2, p3) != 0)
    pl = plane_through(p1, p2, p3)
    assert pl.det > 0
    assert plane_through(p1, p3, p2) == pl  # the other orientation
    assert plane_through(p2, p3, p1) == pl
    c1, c2, c3 = _plane3(p1, p2, p3)
    h = c1 * x + c2 * y + c3
    assert floor_plane(pl, x, y) == h.numerator // h.denominator
    for zz in (z, floor_plane(pl, x, y), floor_plane(pl, x, y) + 1):
        d = above_plane(pl, x, y, zz)
        assert (d > 0) - (d < 0) == (zz > h) - (zz < h)


def test_above_and_floor_plane_examples():
    z_is_y, z_is_5, z_is_x_plus_y = Plane(1, 0, 1, 0), Plane(1, 0, 0, 5), Plane(6, 6, 6, 0)
    assert floor_plane(z_is_y, 7, 3) == 3
    assert floor_plane(z_is_5, -4, 9) == 5
    assert floor_plane(z_is_x_plus_y, 2, 3) == 5
    assert above_plane(z_is_x_plus_y, 2, 3, 5) == 0
    assert above_plane(z_is_x_plus_y, 2, 3, 6) > 0 > above_plane(z_is_x_plus_y, 2, 3, 4)
    # 2z = x + y + 1 at (1, 1) is 3/2, and at (-2, 0) it is -1/2
    half = Plane(2, 1, 1, 1)
    assert floor_plane(half, 1, 1) == 1
    assert floor_plane(half, -2, 0) == -1
    assert above_plane(half, 1, 1, 2) > 0 > above_plane(half, 1, 1, 1)


def test_floor_ceil_fraction():
    assert 7 // 2 == 3 and ceil_div(7, 2) == 4
    assert -7 // 2 == -4 and ceil_div(-7, 2) == -3
    assert 7 // -2 == -4 and ceil_div(7, -2) == -3
    assert 5 // 1 == 5 == ceil_div(5, 1)
    assert 6 // 3 == 2 == ceil_div(6, 3)


def test_package_imports_no_fractions():
    # the pipeline is integer-only: no module of the package may import fractions
    src = Path(__file__).resolve().parents[1] / "src" / "shedpoly"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 10
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.startswith("fractions") for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fractions")
    ]
    assert not offenders, f"fractions imported at {offenders}"
