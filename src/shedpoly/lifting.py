"""Lift a sequentially convex drawing to a convex surface with integer heights.

The base triangle stays at height 0.  Every later vertex gets the smallest
integer height that puts it strictly above the planes of the faces its
predecessors bound -- because every drawing prefix is in convex position with
respect to the base edge, clearing those local planes already clears every
face plane of the partial surface, so the result is convex.  We take the
greedy minimal height and *assert* the closed-form ceilings (499*n^8*m_i + 1
per step, (500*n^8)^depth per vertex) instead of constructing with them.

Heights are exact Python ints; they can grow to thousands of bits on deep
instances, which is fine.  The links and prefix boundary cycles come from the
SheddingSequence itself, so lifting deletes no vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .embedding import GridEmbedding, first_faulty_prefix
from .exactgeom import Plane, Point3, above_plane, floor_plane, plane_through
from .griddiam import tau_profile
from .triangulation import SheddingSequence, peeled_from, rot_min_first


class NotSequentiallyConvex(Exception):
    """Some drawing prefix is not in convex position over the base edge."""


class BoundaryNotTriangle(Exception):
    """Truncation needs a triangular outer face plus at least one interior
    vertex; anything else cannot close into a bounded 3-polytope."""


def height_bound(n: int, m_i: int) -> int:
    """The per-step ceiling 499*n^8*m_i + 1 (exact integer)."""
    return 499 * n**8 * m_i + 1


@dataclass(frozen=True)
class LiftedPolyhedron:
    """A convex lift: heights, lifted points, and the facet list.

    Facets are the lifted triangles, counterclockwise seen from above.  After
    truncation they are reoriented outward (see truncate_to_polytope) and
    ``truncated`` holds the closing top triangle.  ``m`` stores, per vertex,
    the largest height among its predecessors (the m_i of the height bound).
    """

    heights: dict[int, int]
    points: dict[int, Point3]
    facets: tuple[tuple[int, int, int], ...]
    m: dict[int, int]
    sequence: SheddingSequence
    truncated: Optional[tuple[int, int, int]] = None

    def height_bits(self) -> int:
        """Bit length of the tallest height (benchmark statistic)."""
        return max(h.bit_length() for h in self.heights.values())


def _check_sequentially_convex(coords: dict[int, tuple], a: SheddingSequence) -> None:
    """Every prefix boundary must be a strictly convex x-monotone chain over
    the base edge.  Raises NotSequentiallyConvex with the first offending
    prefix and its leftmost offending chain edge (embedding.first_faulty_prefix
    walks the chains in O(n) over all prefixes)."""
    bad = first_faulty_prefix(coords, a)
    if bad is None:
        return
    i, fault = bad
    if fault is None:
        v = a.order[i - 1]
        raise NotSequentiallyConvex(f"prefix {i}: link of {v} is not a run of the chain")
    test, u, w = fault
    what = "x not increasing" if test == "x" else "slopes not strictly decreasing"
    raise NotSequentiallyConvex(f"prefix {i}: chain {what} at {u}-{w}")


def lift(emb: GridEmbedding, a: SheddingSequence) -> LiftedPolyhedron:
    """Greedy minimal convex lift of a sequentially convex drawing.

    For each i >= 4 the height of a_i is the smallest integer strictly above
    the planes of all faces of the previous prefix that touch a neighbor of
    a_i; those neighbors are the link that the sequence recorded when it was
    peeled.  The per-step and per-chain height ceilings are asserted.
    """
    G = emb.G
    coords = emb.coords
    a = peeled_from(G, a)
    _check_sequentially_convex(coords, a)

    pos = a.position()
    birth = {t: max(pos[w] for w in t) for t in G.triangles}
    by_vertex: dict[int, list[tuple[int, int, int]]] = {v: [] for v in G.vertices}
    for t in G.triangles:
        for w in t:
            by_vertex[w].append(t)

    n = G.n
    heights = {a.order[0]: 0, a.order[1]: 0, a.order[2]: 0}
    m = {a.order[0]: 0, a.order[1]: 0, a.order[2]: 0}
    planes: dict[tuple[int, int, int], Plane] = {}
    profile = tau_profile(G, a)

    def plane_of(t: tuple[int, int, int]) -> Plane:
        pl = planes.get(t)
        if pl is None:
            p1, p2, p3 = (
                Point3(coords[w][0], coords[w][1], heights[w]) for w in t
            )
            pl = plane_through(p1, p2, p3)
            planes[t] = pl
        return pl

    for i in range(4, n + 1):
        v = a.order[i - 1]
        link = a.link(i)
        x, y = coords[v]
        # floor is monotone, so the floor of the highest plane is the highest floor
        best: Optional[int] = None
        seen: set[tuple[int, int, int]] = set()
        for u in link:
            for t in by_vertex[u]:
                if birth[t] <= i - 1 and t not in seen:
                    seen.add(t)
                    val = floor_plane(plane_of(t), x, y)
                    if best is None or val > best:
                        best = val
        assert best is not None, "link of a shedding vertex bounds no face"
        hv = best + 1
        heights[v] = hv
        m[v] = max(heights[u] for u in link)
        assert hv <= height_bound(n, m[v]), (
            f"height {hv} of vertex {v} exceeds 499*n^8*m+1 with m={m[v]}"
        )
        assert hv <= (500 * n**8) ** profile.depth[v], (
            f"height of vertex {v} exceeds (500n^8)^depth"
        )

    assert max(heights.values()) <= (500 * n**8) ** profile.tau

    points = {
        w: Point3(coords[w][0], coords[w][1], heights[w]) for w in G.vertices
    }
    return LiftedPolyhedron(
        heights=heights,
        points=points,
        facets=G.triangles,
        m=m,
        sequence=a,
    )


def truncate_to_polytope(P: LiftedPolyhedron, emb: GridEmbedding) -> LiftedPolyhedron:
    """Close the lift into a bounded polytope with one triangular top facet.

    Requires the drawing's outer face to be a triangle; the closing plane runs
    through the three lifted boundary vertices, and every other lifted vertex
    must fall strictly below it (a consequence of convexity, asserted here).
    The returned facets are oriented outward: the surface triangles flipped to
    face downward, plus the top triangle as seen from above.
    """
    assert P.truncated is None, "already truncated"
    G = emb.G
    if len(G.boundary) != 3:
        raise BoundaryNotTriangle(
            f"outer face has {len(G.boundary)} vertices, need 3"
        )
    if G.n == 3:
        raise BoundaryNotTriangle(
            "no interior vertex: closing the bare triangle would be flat"
        )
    b1, b2, b3 = G.boundary
    top_plane = plane_through(P.points[b1], P.points[b2], P.points[b3])
    for v in G.vertices:
        if v in (b1, b2, b3):
            continue
        assert above_plane(top_plane, *P.points[v]) < 0, (
            f"vertex {v} does not lie strictly below the closing plane"
        )
    lower = tuple(rot_min_first((t[2], t[1], t[0])) for t in P.facets)
    top = rot_min_first((b1, b2, b3))
    return replace(P, facets=lower + (top,), truncated=top)
