"""Exact arithmetic geometry primitives.

Everything in this package runs on Python ints; there is deliberately no
float code path and no rational type.  A slope or a line intersection is
never built: slopes are compared by cross-multiplying over positive
x-extents, and rounded quotients are integer floor and ceil divisions.
Planes are stored as (det, A, B, D) with det > 0, and the lift and its
certificates compare and floor plane heights with integer products and floor
division only.  orient2d and slopes_decrease use only ring operations, so
they stay exact on any exact number type.
"""

from __future__ import annotations

from typing import NamedTuple


class GeometryError(Exception):
    """Base class for exact-geometry failures."""


class DegenerateFace(GeometryError):
    """Plane requested through three points whose xy-projections are collinear."""


class Point2(NamedTuple):
    x: int
    y: int


class Point3(NamedTuple):
    x: int
    y: int
    z: int


class Plane(NamedTuple):
    """Non-vertical plane det*z = A*x + B*y + D, all integers, det > 0.

    The tuple is not reduced by the gcd of its entries, but it is the same for
    every ordering of the three points plane_through was given.
    """

    det: int
    A: int
    B: int
    D: int


def sign(v: int) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orient2d(p: Point2, q: Point2, r: Point2) -> int:
    """Sign of the signed area of triangle pqr: +1 ccw, -1 cw, 0 collinear."""
    return sign((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


def slopes_decrease(p: Point2, q: Point2, r: Point2) -> bool:
    """slope(q, r) < slope(p, q) for p.x < q.x < r.x, cross-multiplied over
    the positive x-extents.  The one strict-convexity test of an upper chain."""
    return (r[1] - q[1]) * (q[0] - p[0]) < (q[1] - p[1]) * (r[0] - q[0])


def plane_through(p1: Point3, p2: Point3, p3: Point3) -> Plane:
    """The unique non-vertical plane through three lifted integer points.

    Solves det*z = A*x + B*y + D by integer Cramer's rule, with the sign
    flipped so that det > 0.  Raises DegenerateFace when the xy-projections
    are collinear (no such plane / not unique).
    """
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    x3, y3, z3 = p3
    det = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    if det == 0:
        raise DegenerateFace(f"collinear projections: {p1}, {p2}, {p3}")
    A = (z2 - z1) * (y3 - y1) - (y2 - y1) * (z3 - z1)
    B = (x2 - x1) * (z3 - z1) - (z2 - z1) * (x3 - x1)
    D = det * z1 - A * x1 - B * y1
    if det < 0:
        return Plane(-det, -A, -B, -D)
    return Plane(det, A, B, D)


def above_plane(plane: Plane, x: int, y: int, z: int) -> int:
    """det*z - (A*x + B*y + D): an integer with the sign of z minus the
    plane's height above (x, y), zero exactly on the plane."""
    det, A, B, D = plane
    return det * z - A * x - B * y - D


def floor_plane(plane: Plane, x: int, y: int) -> int:
    """Largest integer <= the plane's height above (x, y), exact."""
    det, A, B, D = plane
    return (A * x + B * y + D) // det


def ceil_div(num: int, den: int) -> int:
    """Smallest integer >= num/den, exact; num // den is the largest <=."""
    return -(-num // den)
