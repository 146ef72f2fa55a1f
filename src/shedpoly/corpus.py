"""Random stacked triangulations, the generator behind ``gen-stacked``.

Grid-triangulation generation lives in :mod:`shedpoly.griddiam`.
"""

from __future__ import annotations

import random

from .triangulation import PlaneTriangulation


def gen_stacked(n: int, seed: int) -> PlaneTriangulation:
    """Random stacked triangulation: repeatedly star a vertex into a random face.

    The boundary stays the triangle 0,1,2; vertices 3..n-1 are interior in
    insertion order.  Deterministic for a fixed seed.
    """
    if n < 3:
        raise ValueError(f"n={n} < 3")
    rng = random.Random(seed)
    faces = [(0, 1, 2)]
    for x in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces.pop(i)
        faces.extend([(a, b, x), (b, c, x), (c, a, x)])
    return PlaneTriangulation(range(n), faces, (0, 1, 2))
