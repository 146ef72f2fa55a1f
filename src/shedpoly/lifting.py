"""Lift a sequentially convex drawing to a convex surface with integer heights.

The base triangle stays at height 0.  Every later vertex a_i gets the
smallest integer height that puts it strictly above the planes of the faces
of the previous prefix.  Because every drawing prefix is in convex position
with respect to the base edge, the highest of those planes above a_i is the
plane of a face across one of its link edges, so the lift reads k_i - 1
faces for a vertex with k_i link vertices (the argument is in lift's
docstring).  We take the greedy minimal height and *check* the closed-form
ceilings (499*n^8*m_i + 1 per step, (500*n^8)^tau for the tallest height)
instead of constructing with them; the per-vertex (500*n^8)^depth bound
follows from the per-step one.  A ceiling that fails raises
embedding.PropertyViolation, an implementation bug, also under python -O.

Heights are exact Python ints; they can grow to thousands of bits on deep
instances, which is fine.  The links come from the SheddingSequence itself,
and the faces across them from G's own face map, so lifting deletes no
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .embedding import GridEmbedding, PropertyViolation, first_faulty_prefix
from .exactgeom import Plane, Point3, above_plane, floor_plane, plane_through
from .griddiam import tau_profile
from .triangulation import PlaneTriangulation, SheddingSequence, rot_min_first


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
    verify keeps its crease verdict in the instance's ``__dict__`` (see
    verify._strict_creases), as the cached properties below keep theirs.
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

    @cached_property
    def facet_planes(self) -> tuple[Plane, ...]:
        """plane_through each facet's lifted points, in facet order.

        Computed once per instance, as the value is frozen; the certificates
        in verify all read this one tuple.  plane_through normalizes det > 0,
        so the plane does not depend on the facet's orientation.  Raises
        DegenerateFace for the first facet whose projection is collinear.
        """
        pts = self.points
        return tuple(plane_through(pts[t[0]], pts[t[1]], pts[t[2]]) for t in self.facets)

    @cached_property
    def surface_disk(self) -> PlaneTriangulation:
        """The validated disk of the surface facets, in facet order: every
        facet but the closing top one, turned back to ccw seen from above
        when the lift is truncated.

        Computed once per instance, like facet_planes; an OFF verify and
        verify's lift proof read this one disk, whose one face map
        (built by disk_from_facets) found its boundary and is its third().
        Raises fileio.ParseError when the surface facets do not form a
        triangulated disk.
        """
        from .fileio import disk_from_facets  # fileio imports this module

        top = self.truncated
        if top is None:
            return disk_from_facets(self.facets)
        return disk_from_facets([(t[2], t[1], t[0]) for t in self.facets if t != top])


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

    a must have been peeled from emb.G: its links are read as given, and
    the lift keeps it as ``sequence``.

    Let a_i have the link w_1..w_k in G_i (recorded when it was peeled), and
    let F_j = (w_{j+1}, w_j, third[(w_{j+1}, w_j)]) be the face of G_{i-1}
    across the link edge w_j w_{j+1}.  The height of a_i is one more than the
    largest floor of the planes of F_1..F_{k-1} above its point p, so the
    lift reads k - 1 faces per vertex.

    The max is at some F_j: no face of G_{i-1} has a higher plane above p.
    Take any face T of G_{i-1} and a generic point c inside it.  The segment
    from c to p leaves the convex polygon D_{i-1} that G_{i-1} covers, and
    it leaves through a link edge, because sequential convexity (checked
    first) puts p strictly inside the half-plane of every other boundary
    edge of D_{i-1}.  Just before it leaves, the segment is in some F_j.
    Along the segment, l_{F_j} - l_T is linear.  It is <= 0 at c and >= 0 at
    the exit point, because every face plane lies below the convex lift of
    G_{i-1}; so it is >= 0 at p.  Floor is monotone, so the floor of the
    highest plane is the highest floor, the same number a scan of every face
    around the link would find.

    The per-step ceiling h(a_i) <= 499*n^8*m_i + 1 is checked, and so is
    max h <= B^tau with B = 500*n^8; either failing raises
    PropertyViolation.  The per-vertex bound h(v) <= B^depth(v)
    needs no check of its own.  The link of a_i is exactly its set of
    earlier neighbours, so depth(a_i) = 1 + the largest depth on the link,
    and by induction m_i <= B^(depth(a_i) - 1); then
    h(a_i) <= 499*n^8*B^(d-1) + 1 <= 500*n^8*B^(d-1) = B^d.
    """
    G = emb.G
    coords = emb.coords
    _check_sequentially_convex(coords, a)

    n = G.n
    third = G.third()
    heights = {a.order[0]: 0, a.order[1]: 0, a.order[2]: 0}
    m = dict(heights)
    points = {w: Point3(*coords[w], 0) for w in heights}
    for i in range(4, n + 1):
        v = a.order[i - 1]
        link = a.link(i)
        x, y = coords[v]
        fmax = None
        for r, s in zip(link, link[1:]):
            f = floor_plane(plane_through(points[s], points[r], points[third[(s, r)]]), x, y)
            if fmax is None or f > fmax:
                fmax = f
        hv = fmax + 1
        mv = 0
        for u in link:
            if heights[u] > mv:
                mv = heights[u]
        heights[v] = hv
        m[v] = mv
        points[v] = Point3(x, y, hv)
        if hv > height_bound(n, mv):
            raise PropertyViolation(
                i, "height", f"height {hv} of vertex {v} exceeds 499*n^8*m+1 with m={mv}"
            )
    tau = tau_profile(G, a).tau
    if max(heights.values()) > (500 * n**8) ** tau:
        raise PropertyViolation(n, "height", f"a height exceeds (500*n^8)^tau with tau={tau}")

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
    must fall strictly below it (a consequence of convexity, checked here:
    PropertyViolation otherwise).
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
        if above_plane(top_plane, *P.points[v]) >= 0:
            raise PropertyViolation(
                G.n, "truncation", f"vertex {v} does not lie strictly below the closing plane"
            )
    lower = tuple(rot_min_first((t[2], t[1], t[0])) for t in P.facets)
    top = rot_min_first((b1, b2, b3))
    return replace(P, facets=lower + (top,), truncated=top)
