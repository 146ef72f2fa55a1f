"""Hand-made triangulations for the tests: a triangle, a split square, the
stacked K4, a pentagon fan, and an invalid pinched pair of triangles."""

from __future__ import annotations

from shedpoly.triangulation import PlaneTriangulation


def triangle() -> PlaneTriangulation:
    return PlaneTriangulation(range(3), [(0, 1, 2)], (0, 1, 2))


def split_square() -> PlaneTriangulation:
    """Unit square split by one diagonal.

    Ids: 0=(1,1), 1=(2,1), 2=(2,2), 3=(1,2); the diagonal is 0-2.
    """
    coords = {0: (1, 1), 1: (2, 1), 2: (2, 2), 3: (1, 2)}
    return PlaneTriangulation(range(4), [(0, 1, 2), (0, 2, 3)], (0, 1, 2, 3), coords)


def stacked_k4() -> PlaneTriangulation:
    """Triangle 0,1,2 with an interior vertex 3 joined to all three corners."""
    return PlaneTriangulation(
        range(4), [(0, 1, 3), (1, 2, 3), (2, 0, 3)], (0, 1, 2)
    )


def pentagon_fan() -> PlaneTriangulation:
    """Convex pentagon triangulated as a fan from vertex 0."""
    return PlaneTriangulation(
        range(5), [(0, 1, 2), (0, 2, 3), (0, 3, 4)], (0, 1, 2, 3, 4)
    )


def two_triangles_pinched() -> PlaneTriangulation:
    """Two triangles sharing only one vertex -- deliberately invalid."""
    return PlaneTriangulation(
        range(5), [(0, 1, 2), (2, 3, 4)], (0, 1, 2, 3, 4)
    )
