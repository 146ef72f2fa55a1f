"""Independent certificates for drawings and lifts.

Everything here re-derives its verdict from coordinates and heights alone;
nothing trusts bookkeeping carried along by the construction code.  Each check
returns a Certificate, and a failing certificate always names the first
offending vertex, edge, or face in scan order, so a red result is directly
debuggable.

The drawing check leans on a covering argument instead of an all-pairs
segment-intersection sweep: once every bounded face is drawn strictly ccw and
the outer cycle is simple and ccw, the face cycles sum to the outer cycle as
1-chains, so a generic point is covered by exactly as many triangles as its
winding number under the outer cycle -- once inside, zero outside.  The
triangles then tile the boundary polygon simply, which forces the straight-line
drawing to be a plane embedding whose bounded faces are exactly the triangles.

Fast proofs and the fallback rule.  Three certificates would otherwise check
all pairs: the outer-cycle crossings of check_face_isomorphic, the
vertex-facet pairs of lift_convex_globally, and every prefix boundary in
cli._prefix_convexity; a fourth, check_lift_convex, would build and sort an
edge table.  Each first tries an O(n) proof that can only answer PASS:

* check_face_isomorphic: G is a valid disk drawn with every face strictly
  ccw and a strictly convex outer cycle (_convex_disk_drawing).  A strictly
  convex polygon is simple.
* check_lift_convex: the crease pass (_strict_creases) over the surface
  disk's face map finds every shared facet edge a strict crease.
* lift_convex_globally: the same drawing predicate on the projected
  surface facets, the crease pass's verdict and, for a truncated lift,
  every other vertex strictly below the top facet (proof in its docstring).
* cli._prefix_convexity: the upper-chain window walk of
  embedding.first_faulty_prefix over the verifier's own re-peel proves every
  prefix before the first faulty one.

When a precondition of a proof fails, the full scan runs (from the first
unproved prefix, for the prefix check).  The scans are unchanged, so every
verdict, witness and detail text is exactly the scan's; only inputs that
the proof covers skip them.

Shared values.  An OFF verify (cli._verify_off) builds one
LiftedPolyhedron and reads the surface disk off it (surface_disk, parsed
and validated once per instance); that one value goes to every certificate
that reads a disk: the crease pass, the lift proof, the shedding-order
re-peel and check_face_isomorphic.  check_grid_bounds takes its depths from
griddiam.tau_profile over the re-peel's disk, which is that same disk, so
it reads the neighbour sets validate() already built.  validate() keeps
its verdict on the disk, the facet planes are computed once per
LiftedPolyhedron (facet_planes) and read by check_lift_convex, the lift
proof and the full scans, _convex_disk_drawing keeps its verdict on the
disk for the projection it was asked about, and the crease verdict is one
fact per lift, kept on it and read by check_lift_convex and the lift
proof.  This weakens no certificate: each of these is a pure
function of an immutable parsed value, so computing it again from the same
input could only give the same answer and adds no independence.  A
certificate still checks everything it checked before; it no longer
recomputes a fact another one already derived from the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .exactgeom import (
    DegenerateFace,
    Point2,
    above_plane,
    orient2d,
    slopes_decrease,
)
from .fileio import ParseError
from .griddiam import tau_profile
from .lifting import LiftedPolyhedron
from .triangulation import PlaneTriangulation, validate

XY = Sequence  # any (x, y) pair of exact numbers: tuple, Point2, ...


@dataclass(frozen=True)
class Certificate:
    """Outcome of one independent check.

    kind names the property, witness is None on a pass and the first
    violating element (vertex, edge, face, or bound triple) on a fail.
    """

    kind: str
    passed: bool
    witness: object = None
    detail: str = ""

    def line(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        out = f"{head} {self.kind}"
        if self.detail:
            out += f": {self.detail}"
        if not self.passed:
            out += f" [witness: {self.witness!r}]"
        return out


def report(certs: Iterable[Certificate]) -> str:
    """Line-oriented report, one certificate per line."""
    return "".join(c.line() + "\n" for c in certs)


def _fail(kind: str, witness: object, detail: str) -> Certificate:
    return Certificate(kind, False, witness, detail)


# -- plane drawings --------------------------------------------------------------


def _p2(pt: XY) -> Point2:
    return Point2(pt[0], pt[1])


def _on_segment(a: Point2, b: Point2, c: Point2) -> bool:
    """Is c on the closed segment ab?  Assumes c collinear with a, b."""
    return (
        min(a.x, b.x) <= c.x <= max(a.x, b.x)
        and min(a.y, b.y) <= c.y <= max(a.y, b.y)
    )


def segments_intersect(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> bool:
    """Do the closed segments p1p2 and q1q2 share any point?  Exact."""
    o1 = orient2d(p1, p2, q1)
    o2 = orient2d(p1, p2, q2)
    o3 = orient2d(q1, q2, p1)
    o4 = orient2d(q1, q2, p2)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, p2, q2):
        return True
    if o3 == 0 and _on_segment(q1, q2, p1):
        return True
    if o4 == 0 and _on_segment(q1, q2, p2):
        return True
    return False


def _doubled_area(pts: Sequence[Point2]):
    total = 0
    for a, b in zip(pts, pts[1:] + pts[:1]):
        total += a.x * b.y - b.x * a.y
    return total


def _strictly_convex(cyc: Sequence[Point2]) -> bool:
    """Is the closed polygon cyc strictly convex and ccw?

    Every turn must be strictly left and the total turning exactly 2*pi.
    With every turn strictly left, each edge direction is the previous one
    turned ccw by less than pi, so a step moves the direction between the
    upper half-plane ((dy, dx) > (0, 0), lexicographically) and the lower
    one at most once, and a total turning of 2*pi*k takes exactly 2k such
    moves.  Two moves (k = 1) is a simple strictly convex polygon; a
    pentagram (k = 2) makes four.  Horizontal edges count on the side of
    their dx, so dy = 0 edges are handled exactly.
    """
    dirs = [(q.y - p.y, q.x - p.x) for p, q in zip(cyc, cyc[1:] + cyc[:1])]
    moves = 0
    for (dy0, dx0), (dy1, dx1) in zip(dirs[-1:] + dirs[:-1], dirs):
        if dx0 * dy1 - dy0 * dx1 <= 0:
            return False
        moves += ((dy0, dx0) > (0, 0)) != ((dy1, dx1) > (0, 0))
    return moves == 2


def _convex_disk_drawing(G: PlaneTriangulation, coords: Mapping[int, XY]) -> bool:
    """The O(n) predicate behind both fast proofs, for a G that validate()
    accepts: coords draws exactly G's vertices, every face strictly ccw, and
    the outer cycle as a strictly convex polygon.  By the covering argument
    of the module docstring the faces then tile that polygon once, so the
    drawing is a plane embedding; in particular no two vertices coincide
    (their stars would cover the common point twice).

    The verdict is kept on G with a copy of the points it read, and reused
    while coords compares equal to that copy: check_face_isomorphic and the
    lift proof ask it of the same disk and projection in one verify run."""
    memo = G._drawn
    if memo is None or memo[0] != coords:
        drawn = {v: (p[0], p[1]) for v, p in coords.items()}
        memo = G._drawn = (drawn, _draws_convex(G, drawn))
    return memo[1]


def _draws_convex(G: PlaneTriangulation, coords: Mapping[int, XY]) -> bool:
    """_convex_disk_drawing's verdict, uncached."""
    if set(coords) != set(G.vertices):
        return False
    pts = {v: _p2(coords[v]) for v in G.vertices}
    if any(orient2d(pts[a], pts[b], pts[c]) != 1 for a, b, c in G.triangles):
        return False
    return _strictly_convex([pts[v] for v in G.boundary])


def _face_isomorphic_passed(G: PlaneTriangulation) -> Certificate:
    return Certificate(
        "face-isomorphic", True, None,
        f"{len(G.triangles)} faces ccw, outer {len(G.boundary)}-cycle simple",
    )


def check_face_isomorphic(
    G: PlaneTriangulation, coords: Mapping[int, XY]
) -> Certificate:
    """Does drawing G's edges straight at coords reproduce G's faces?

    Passes iff the identity vertex map carries G's triangles onto the bounded
    faces of the straight-line drawing.  Per the covering argument in the
    module docstring, that is equivalent to: G is a valid triangulated disk,
    every triangle is drawn strictly ccw, and the outer cycle is drawn as a
    simple ccw polygon.  Those three conditions are what gets checked.

    A strictly convex outer cycle is simple, so a valid G for which
    _convex_disk_drawing holds passes, in O(n).  Any other drawing (a flat boundary vertex, a crossing,
    a cw face, ...) goes to the full scan, whose outer-cycle loop is O(b^2).
    """
    if not validate(G) and _convex_disk_drawing(G, coords):
        return _face_isomorphic_passed(G)
    return _face_isomorphic_scan(G, coords)


def _face_isomorphic_scan(
    G: PlaneTriangulation, coords: Mapping[int, XY]
) -> Certificate:
    """check_face_isomorphic's full scan: the first violation in scan order."""
    kind = "face-isomorphic"
    bad = validate(G)
    if bad:
        return _fail(kind, bad[0], f"input is not a triangulated disk ({len(bad)} violations)")
    missing = sorted(set(G.vertices) ^ set(coords))
    if missing:
        return _fail(kind, missing[0], "vertex sets of triangulation and drawing differ")
    pts = {v: _p2(coords[v]) for v in G.vertices}
    seen: dict[Point2, int] = {}
    for v in sorted(pts):
        if pts[v] in seen:
            return _fail(kind, (seen[pts[v]], v), "two vertices drawn at the same point")
        seen[pts[v]] = v
    for t in G.triangles:
        if orient2d(pts[t[0]], pts[t[1]], pts[t[2]]) != 1:
            return _fail(kind, t, "face not drawn strictly counterclockwise")
    cyc = [pts[v] for v in G.boundary]
    b = len(cyc)
    if _doubled_area(cyc) <= 0:
        return _fail(kind, G.boundary, "outer cycle not drawn counterclockwise")
    for i in range(b):
        p1, p2 = cyc[i], cyc[(i + 1) % b]
        for j in range(i + 1, b):
            q1, q2 = cyc[j], cyc[(j + 1) % b]
            adjacent = j == i + 1 or (i == 0 and j == b - 1)
            if adjacent:
                shared = p2 if j == i + 1 else p1
                other_p = p1 if j == i + 1 else p2
                other_q = q2 if j == i + 1 else q1
                if orient2d(shared, other_p, other_q) == 0 and (
                    (other_p.x - shared.x) * (other_q.x - shared.x)
                    + (other_p.y - shared.y) * (other_q.y - shared.y)
                ) > 0:
                    ei = (G.boundary[i], G.boundary[(i + 1) % b])
                    ej = (G.boundary[j], G.boundary[(j + 1) % b])
                    return _fail(kind, (ei, ej), "consecutive outer edges overlap")
            elif segments_intersect(p1, p2, q1, q2):
                ei = (G.boundary[i], G.boundary[(i + 1) % b])
                ej = (G.boundary[j], G.boundary[(j + 1) % b])
                return _fail(kind, (ei, ej), "outer cycle self-intersects")
    return _face_isomorphic_passed(G)


def check_projectively_convex(
    cycle: Sequence[XY], base: tuple[XY, XY]
) -> Certificate:
    """Is the drawn boundary strictly convex as seen from below the base?

    cycle is the ccw outer cycle of a drawn prefix, as exact points; base is
    the pair of base-edge endpoints, expected on the x-axis with the rest of
    the cycle strictly above it.  Passes iff, walking the non-base boundary
    chain left to right, consecutive x-coordinates strictly increase and edge
    slopes strictly decrease -- the exact-arithmetic form of being contained
    in a triangle over the base.
    """
    kind = "projectively-convex"
    pts = [_p2(p) for p in cycle]
    b1, b2 = _p2(base[0]), _p2(base[1])
    if b1.y != 0 or b2.y != 0 or b1.x == b2.x:
        return _fail(kind, (tuple(b1), tuple(b2)), "base edge not a span of the x-axis")
    lb, rb = (b1, b2) if b1.x < b2.x else (b2, b1)
    for p in pts:
        if p not in (lb, rb) and p.y <= 0:
            return _fail(kind, tuple(p), "cycle point not strictly above the x-axis")
    seen: set[Point2] = set()
    for p in pts:
        if p in seen:
            return _fail(kind, tuple(p), "repeated point on the cycle")
        seen.add(p)
    if lb not in pts or rb not in pts:
        return _fail(kind, (tuple(lb), tuple(rb)), "base endpoints not on the cycle")
    j = pts.index(lb)
    rot = pts[j:] + pts[:j]
    if rot[1] != rb:
        return _fail(kind, (tuple(lb), tuple(rb)), "base edge not traversed lb->rb on the ccw cycle")
    chain = [lb] + rot[:1:-1] + [rb]
    for j in range(1, len(chain)):
        u, v = chain[j - 1], chain[j]
        if v.x <= u.x:
            return _fail(kind, (tuple(u), tuple(v)), "chain not strictly x-monotone")
        if j >= 2 and not slopes_decrease(chain[j - 2], u, v):
            return _fail(kind, (tuple(u), tuple(v)), "edge slopes not strictly decreasing")
    return Certificate(kind, True, None, f"{len(chain) - 1} chain edges, slopes strictly decreasing")


# -- lifted surfaces -------------------------------------------------------------


def _facet_data(P: LiftedPolyhedron):
    """Per-facet plane (P.facet_planes) and inner-side sign: +1 above for the
    lifted surface, -1 below for the closing top face of a truncated
    polytope.  Raises DegenerateFace as P.facet_planes does."""
    top = P.truncated
    return [
        (t, pl, -1 if (top is not None and t == top) else 1)
        for t, pl in zip(P.facets, P.facet_planes)
    ]


def check_lift_convex(P: LiftedPolyhedron) -> Certificate:
    """Strict convexity across every shared edge of the lifted facets.

    For two facets meeting along an edge, each one's opposite vertex must lie
    strictly on the inner side of the other's plane.  Edges on only one facet
    (the untruncated surface's rim) are skipped.

    Fast proof, PASS only: when the crease pass (_strict_creases, one
    verdict per lift, shared with lift_convex_globally's proof) finds every
    shared edge strictly convex, the certificate passes with the pass's edge
    count.  Otherwise the full scan runs, reporting the first violation in
    sorted edge order.
    """
    edges = _strict_creases(P)
    if edges is not None:
        return _lift_convex_passed(edges)
    return _lift_convex_scan(P)


def _lift_convex_passed(edges: int) -> Certificate:
    return Certificate(
        "lift-convex-local", True, None, f"{edges} edges, all shared ones strictly convex"
    )


def _lift_convex_scan(P: LiftedPolyhedron) -> Certificate:
    """check_lift_convex's full scan: an edge -> wings table, in sorted edge
    order, both wings of every shared edge."""
    kind = "lift-convex-local"
    try:
        facets = _facet_data(P)
    except DegenerateFace as exc:
        return _fail(kind, str(exc), "degenerate facet")
    # edge -> (facet index, the facet's vertex off the edge) per incident
    # facet; a facet with a plane has three distinct vertices
    wings: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for idx, (t, _, _) in enumerate(facets):
        a, b, c = t[0], t[1], t[2]
        for u, v, w in ((a, b, c), (b, c, a), (a, c, b)):
            wings.setdefault((u, v) if u < v else (v, u), []).append((idx, w))
    pts = P.points
    for e in sorted(wings):
        inc = wings[e]
        if len(inc) == 1:
            continue
        if len(inc) > 2:
            return _fail(kind, e, f"edge on {len(inc)} facets")
        (i, wi), (j, wj) = inc
        for f, g, w in ((i, j, wj), (j, i, wi)):
            t, pl, side = facets[f]
            if side * above_plane(pl, *pts[w]) <= 0:
                return _fail(kind, e, f"facets {t} and {facets[g][0]} not strictly convex across it")
    return _lift_convex_passed(len(wings))


_CREASES = "_verify_creases"  # the crease verdict, kept in a lift's __dict__


def _strict_creases(P: LiftedPolyhedron) -> Optional[int]:
    """The crease pass's verdict, computed once per lift: the number of
    distinct facet edges when every edge shared by two facets is a strict
    crease, None when the pass gives no verdict.

    The lift is a frozen value, so the verdict is kept on it (like
    _convex_disk_drawing's on a disk); replace() makes a new lift without
    it.  check_lift_convex and lift_convex_globally's proof both read it."""
    memo = P.__dict__
    if _CREASES not in memo:
        memo[_CREASES] = _crease_pass(P)
    return memo[_CREASES]


def _crease_pass(P: LiftedPolyhedron) -> Optional[int]:
    """_strict_creases's verdict, uncached.

    It walks the face map of the validated surface disk: every directed
    interior edge (u, v) of a facet tests that facet's plane against the
    far vertex third[(v, u)] across it, so each interior edge has both
    wings tested.  A truncated lift's top facet shares a rim edge with one
    surface facet, and each of the two is tested against the other's far
    vertex.  That is every test of check_lift_convex's scan.  The count is
    the disk's edges, len(third) - (interior directed edges) / 2, plus the
    top edges the disk lacks.

    No verdict (None) when the surface is not a disk, a facet is
    degenerate, the top is not exactly one of the facets, a top edge is an
    interior edge of the disk (it would be on three facets), or a crease
    is not strict: the scan then reports as it always did.
    """
    try:
        disk = P.surface_disk  # validated
        planes = P.facet_planes
    except (ParseError, DegenerateFace):
        return None
    top = P.truncated
    surface, far = planes, {}
    if top is not None:
        if len(planes) != len(disk.triangles) + 1:
            return None
        k = P.facets.index(top)
        top_plane, surface = planes[k], planes[:k] + planes[k + 1:]
        a, b, c = top
        far = {(a, b): c, (b, a): c, (b, c): a, (c, b): a, (c, a): b, (a, c): b}
    pts = P.points
    third = disk.third()
    interior = 0
    for t, pl in zip(disk.triangles, surface):
        for u, v, w in ((t[0], t[1], t[2]), (t[1], t[2], t[0]), (t[2], t[0], t[1])):
            x = third.get((v, u))
            if x is not None:
                interior += 1
                if above_plane(pl, *pts[x]) <= 0:
                    return None
            elif (u, v) in far and (
                above_plane(pl, *pts[far[(u, v)]]) <= 0
                or above_plane(top_plane, *pts[w]) >= 0
            ):
                return None
    edges = len(third) - interior // 2
    if top is not None:
        for u, v in ((a, b), (b, c), (c, a)):
            fwd, back = (u, v) in third, (v, u) in third
            if fwd and back:
                return None
            if not (fwd or back):
                edges += 1
    return edges


def _convex_lift(P: LiftedPolyhedron) -> bool:
    """The O(n) proof behind lift_convex_globally's PASS; False means only
    that this proof does not apply."""
    if _strict_creases(P) is None:
        return False
    pts = P.points
    if not _convex_disk_drawing(P.surface_disk, {v: (p.x, p.y) for v, p in pts.items()}):
        return False
    top = P.truncated
    if top is not None:
        pl = P.facet_planes[P.facets.index(top)]
        if any(above_plane(pl, *p) >= 0 for v, p in pts.items() if v not in top):
            return False
    return True


def _lift_globally_passed(P: LiftedPolyhedron) -> Certificate:
    return Certificate(
        "lift-convex-global", True, None,
        f"{len(P.facets)} facets support all {len(P.points)} vertices",
    )


def lift_convex_globally(P: LiftedPolyhedron) -> Certificate:
    """Every vertex against every facet plane: incident ones exactly on it,
    all others strictly on its inner side (above a surface facet, below the
    closing top facet of a truncated lift).

    Fast proof, O(n), PASS only.  Take the surface facets (all but the top
    one) in their ccw orientation seen from above, and suppose that
    (1) they form a valid disk D on all of P's vertices whose projection has
        strictly ccw faces and a strictly convex outer cycle Q
        (_convex_disk_drawing);
    (2) across every interior edge of D, the far vertex of one wing lies
        strictly above the other wing's plane (a strict crease; one wing
        suffices, since the difference of the two planes vanishes on the
        edge's line and so has opposite signs at the two far vertices);
    (3) for a truncated lift, every vertex off the top facet lies strictly
        below its plane.
    By (1) and the covering argument of the module docstring, the projected
    faces tile the convex polygon Q, and the heights define a piecewise
    linear f on Q.  Along a segment that misses every vertex, f breaks only
    at crossings of interior edges, where (2) makes it strictly convex; by
    continuity f is convex along every segment, so f is convex on Q
    (Tietze-Nakajima: locally convex on a convex domain is convex).  Hence
    f >= l_F for the plane l_F of each face F.  If a vertex v off F had
    f(v) = l_F(v), the convex f - l_F >= 0 would vanish near a generic
    point c inside F and at v, hence on all of the segment cv; but cv
    leaves F through the inside of an edge, interior because Q is convex,
    and the strict crease there makes f - l_F > 0 just beyond it.  So every
    vertex off a surface facet lies strictly above its plane, (3) is the
    same statement for the top facet, and plane_through is exact, so a
    facet's own vertices lie on its plane.  That is the whole all-pairs
    statement.

    (2) is read off the crease verdict that check_lift_convex passes on
    (_strict_creases, one pass per lift).  That pass tests both wings of
    every interior edge and the top facet's rim creases too, so it asks
    more than (2), never less.

    Otherwise the full scan runs: O(facets x vertices), pure integer
    (d = det*z - A*x - B*y - D has the sign of the vertex's height over the
    plane because det > 0), reporting the first violation in scan order.
    The local certificate must agree with this one (they are equivalent for
    lifts of a disk with a convex drawing, and the test suite checks that on
    every instance it builds)."""
    if _convex_lift(P):
        return _lift_globally_passed(P)
    return _lift_convex_globally_scan(P)


def _lift_convex_globally_scan(P: LiftedPolyhedron) -> Certificate:
    """lift_convex_globally's full scan: every vertex against every facet."""
    kind = "lift-convex-global"
    try:
        facets = _facet_data(P)
    except DegenerateFace as exc:
        return _fail(kind, str(exc), "degenerate facet")
    pts = [(v, *P.points[v]) for v in sorted(P.points)]
    for t, (det, A, B, D), side in facets:
        for v, x, y, z in pts:
            d = det * z - A * x - B * y - D
            if v in t:
                if d != 0:
                    return _fail(kind, (t, v), "facet vertex off its own plane")
            elif side * d <= 0:
                return _fail(kind, (t, v), "vertex not strictly inside facet plane")
    return _lift_globally_passed(P)


# -- grid bounds -----------------------------------------------------------------


def check_grid_bounds(obj: Union[LiftedPolyhedron, Mapping[int, XY]], n: int) -> Certificate:
    """Bounding-box dimensions against the 4n^3 x 8n^5 grid, and, for a lift,
    the extent of the heights (max - min) against (500 n^8)^tau (tau <= n,
    so the (500 n^8)^n ceiling is implied).  Accepts a lift or a coordinate
    mapping, such as a drawing's coords.

    tau is griddiam.tau_profile of the lift's sequence over the disk it was
    peeled from.  In an OFF verify that disk is the surface disk parsed from
    these facets and peeled again along the document's order; for
    ``lift --audit`` it is the input, whose triangles are the facets, and
    the profile is the one the lift's own height assert already kept on the
    sequence."""
    kind = "grid-bounds"
    if isinstance(obj, LiftedPolyhedron):
        pts = [(p.x, p.y) for p in obj.points.values()]
        heights = obj.heights
    elif isinstance(obj, Mapping):
        pts = list(obj.values())
        heights = None
    else:
        raise TypeError(f"expected a lift or a coordinate mapping, got {type(obj).__name__}")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    dx, dy = max(xs) - min(xs), max(ys) - min(ys)
    if dx > 4 * n**3:
        return _fail(kind, ("x", dx, 4 * n**3), "width exceeds 4n^3")
    if dy > 8 * n**5:
        return _fail(kind, ("y", dy, 8 * n**5), "height exceeds 8n^5")
    detail = f"x {dx} <= {4 * n**3}, y {dy} <= {8 * n**5}"
    if heights is not None:
        tau = tau_profile(obj.sequence.G, obj.sequence).tau
        if tau > n:
            return _fail(kind, ("tau", tau, n), "depth exceeds vertex count")
        zbound = (500 * n**8) ** tau
        dz = max(heights.values()) - min(heights.values())
        if dz > zbound:
            return _fail(kind, ("z", dz, zbound), "height exceeds (500n^8)^tau")
        detail += f", z {dz} <= (500n^8)^{tau}"
    return Certificate(kind, True, None, detail)
