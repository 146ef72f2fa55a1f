"""Exact arithmetic geometry primitives.

Everything in this package runs on Python ints and fractions.Fraction; there is
deliberately no float code path.  Fraction keeps slopes and line intersections
canonical (reduced, positive denominator) where the drawing code needs them.
Planes are pure-integer: a plane is stored as (det, A, B, D) with det > 0, and
the lift and its certificates compare and floor plane heights with integer
products and floor division only, never building a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

Scalar = Union[int, Fraction]


class GeometryError(Exception):
    """Base class for exact-geometry failures."""


class VerticalEdge(GeometryError):
    """Slope requested for a segment with equal x coordinates."""


class DegenerateFace(GeometryError):
    """Plane requested through three points whose xy-projections are collinear."""


class Point2(NamedTuple):
    x: Scalar
    y: Scalar


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


def sign(v: Scalar) -> int:
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
    the positive x-extents.  The one strict-convexity test of an upper chain,
    exact on int and Fraction points alike."""
    return (r[1] - q[1]) * (q[0] - p[0]) < (q[1] - p[1]) * (r[0] - q[0])


def slope(p: Point2, q: Point2) -> Fraction:
    """Slope of segment pq.  Raises VerticalEdge when x(p) == x(q).

    Vertical edges are an error by design: the drawings this package produces
    never contain them, so asking for such a slope means an upstream bug.
    """
    dx = q[0] - p[0]
    if dx == 0:
        raise VerticalEdge(f"vertical segment through x={p[0]!r}")
    return Fraction(q[1] - p[1], 1) / Fraction(dx, 1)


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


def intersect_lines(p: Point2, s: Fraction, q: Point2, u: Fraction) -> Point2:
    """Intersection of the line through p with slope s and through q with slope u.

    Raises GeometryError when s == u (parallel); callers that can hit this
    legitimately should check first.
    """
    if s == u:
        raise GeometryError("parallel lines")
    # y = y_p + s (x - x_p) = y_q + u (x - x_q)
    x = (Fraction(q[1]) - Fraction(p[1]) + s * p[0] - u * q[0]) / (s - u)
    y = Fraction(p[1]) + s * (x - p[0])
    return Point2(x, y)


def floor_fraction(v: Scalar) -> int:
    """Largest integer <= v, exact."""
    if isinstance(v, int):
        return v
    return v.numerator // v.denominator


def ceil_fraction(v: Scalar) -> int:
    """Smallest integer >= v, exact."""
    if isinstance(v, int):
        return v
    return -((-v.numerator) // v.denominator)
