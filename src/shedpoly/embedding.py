"""Sequentially convex straight-line drawings on an integer grid.

:func:`grid_embed` draws a disk over a shedding sequence with integer
coordinates on a 4n^3 x 8n^5 grid.  It tracks a scaled copy of the reduced
template triangulation: high-degree steps round the support-line intersection
outward, degree-2 steps copy (scale, translate, shear, round) the matching
template triangle.  Both rules are integer floor and ceil divisions.  Three
per-step properties are audited in integer arithmetic: horizontal extent
dominates the template edge, slope drifts from the template by at most i, and
the upper chain of every prefix is strictly convex.

The upper chain of the growing prefix lives in an :class:`UpperChain`, which
splices in each new vertex's link, and the audit is incremental: at step i
only the chain window around a_i can lose convexity, so each step costs O(1)
plus the splice.  The window check rests on exactgeom.slopes_decrease, the
one chain-convexity predicate.  first_faulty_prefix runs the same walk over a
finished drawing, for the lift's prefix check and the verifier's fast proof
of prefix convexity.

The drawing reads the links that the SheddingSequence carries, and the
orientation and cycle heads it derives from them; it deletes no vertex.
Left and right are read off the boundary-cycle orientation, never from
vertex labels, so the only normalization ever needed is mirroring the
instance when its contracted tree is left-heavy (and negating x afterward).
The mirrored sequence is the same history with every link reversed, and its
reduction is the same reduction with left and right exchanged
(ReducedStructure.mirrored): the drawing mirrors the reduction, not rebuilds
it.  It still draws in the mirrored frame, because the floor and ceil of the
placement rules are not symmetric under x -> -x.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional

from .exactgeom import ceil_div, orient2d, slopes_decrease
from .reduction import (
    ReducedTriangulation,
    build_reduced_triangulation,
    build_shedding_trees,
    reduce_trees,
)
from .triangulation import PlaneTriangulation, SheddingSequence, edge_key


class ParallelSupportLines(Exception):
    """The support edges are not x-increasing, or their slopes fail s > u;
    must never fire on valid input."""


class PropertyViolation(Exception):
    """A per-step audit failed: implementation bug, never valid-input failure."""

    def __init__(self, i: int, which: str, detail: str):
        super().__init__(f"step {i}: property {which} violated: {detail}")
        self.i = i
        self.which = which


IntPoint = tuple[int, int]


@dataclass(frozen=True)
class ScaledTemplate:
    """The template triangulation stretched onto the working grid:
    z_q = (alpha * x(a*_q), beta * y(a*_q)) with alpha = 2n^2+n+1, beta = 2n*alpha."""

    alpha: int
    beta: int
    rt: ReducedTriangulation
    z: dict[int, IntPoint]


def make_template(rt: ReducedTriangulation, n: int) -> ScaledTemplate:
    alpha = 2 * n * n + n + 1
    beta = 2 * n * alpha
    z = {vid: (alpha * x, beta * y) for vid, (x, y) in rt.Gstar.coords.items()}
    return ScaledTemplate(alpha, beta, rt, z)


# -- placement cases (pure helpers) --------------------------------------------


def place_high_degree(ws: list[IntPoint]) -> IntPoint:
    """Vertex placement over a chain of k >= 3 neighbors (degree > 2 case).

    Intersect the line of slope s = s(w1 w2) through w1 with the line of
    slope u = s(w_{k-1} w_k) through w_k at (xbar, ybar), then round:
    x' = ceil(xbar), and y' = ceil(ybar) + floor((x' - xbar) * s) + 1.

    In integers: with s = sn/sd and u = un/ud over the positive x-extents sd
    and ud, the intersection is w1 + (sd, sn) * t/den, where
    t = (y_k - y_1) ud - un (x_k - x_1) and den = sn ud - un sd > 0.
    """
    (x1, y1), (x2, y2) = ws[0], ws[1]
    (xk1, yk1), (xk, yk) = ws[-2], ws[-1]
    sn, sd = y2 - y1, x2 - x1
    un, ud = yk - yk1, xk - xk1
    if sd <= 0 or ud <= 0:
        raise ParallelSupportLines(f"support edges not x-increasing: x-extents {sd}, {ud}")
    den = sn * ud - un * sd
    if den <= 0:
        raise ParallelSupportLines(f"support slopes s={_ratio(sn, sd)} <= u={_ratio(un, ud)}")
    t = (yk - y1) * ud - un * (xk - x1)
    dx = ceil_div(sd * t, den)
    # (x' - xbar) * s = (dx den - sd t) sn / (sd den)
    dy = ceil_div(sn * t, den) + (sn * (dx * den - sd * t)) // (sd * den) + 1
    return (x1 + dx, y1 + dy)


def place_degree_two(
    w1: IntPoint, w2: IntPoint, b1: IntPoint, b2: IntPoint, apex: IntPoint
) -> IntPoint:
    """Vertex placement by copying a template triangle (degree = 2 case).

    The triangle (b1, b2, apex) is scaled by lam = W/D (W, D the x-extents
    of w1 w2 and b1 b2) and translated so that the image of b2 is exactly w2
    and the image of b1 shares its x with w1, then sheared down by
    kappa * eta, with kappa = (b2.x - apex.x) / D and eta the height of b1's
    image above w1, to pin the b1 corner onto w1; the apex image is rounded
    (floor x when the template apex is left of center, ceil when right;
    always ceil y).

    In integers, relative to w2 the apex image is W (apex.x - b2.x) / D in x
    and (W (apex.y - b2.y) D - (b2.x - apex.x) eta_d) / D^2 in y, where
    eta_d = eta * D = (w2.y - w1.y) D + W (b1.y - b2.y).
    """
    W, D = w2[0] - w1[0], b2[0] - b1[0]
    assert W * D > 0
    xnum = W * (apex[0] - b2[0])
    dx = xnum // D if apex[0] <= 0 else ceil_div(xnum, D)
    eta_d = (w2[1] - w1[1]) * D + W * (b1[1] - b2[1])
    ynum = W * (apex[1] - b2[1]) * D - (b2[0] - apex[0]) * eta_d
    return (w2[0] + dx, w2[1] + ceil_div(ynum, D * D))


# -- grid embedding -------------------------------------------------------------


class AuditRecord(NamedTuple):
    i: int
    case: str
    point: IntPoint


@dataclass(frozen=True)
class GridEmbedding:
    """Integer drawing plus the bookkeeping that certified it.

    coords are in the frame of the input triangulation (mirroring, if any, has
    been undone); correspondence maps every edge that was ever a prefix
    boundary edge to its template edge (as a pair of template vertex ids), in
    the construction frame.
    """

    G: PlaneTriangulation
    sequence: SheddingSequence
    coords: dict[int, IntPoint]
    correspondence: dict[tuple[int, int], tuple[int, int]]
    template: ScaledTemplate
    mirrored: bool
    audit: Optional[tuple[AuditRecord, ...]]

    def bbox(self) -> tuple[int, int, int, int]:
        xs = [p[0] for p in self.coords.values()]
        ys = [p[1] for p in self.coords.values()]
        return min(xs), min(ys), max(xs), max(ys)

    @property
    def width(self) -> int:
        x0, _, x1, _ = self.bbox()
        return x1 - x0

    @property
    def height(self) -> int:
        _, y0, _, y1 = self.bbox()
        return y1 - y0


class UpperChain:
    """The upper chain of a drawing prefix, as left/right neighbour maps.

    It starts as the base triangle's chain lb, a_3, rb.  Adding a_i turns
    the chain of G_{i-1} into that of G_i: the link w_1..w_k of a_i is a run
    of the old chain, left to right, and a_i takes the place of its inner
    vertices w_2..w_{k-1}, which become interior for good.
    """

    def __init__(self, lb: int, a3: int, rb: int):
        self.left = {a3: lb, rb: a3}
        self.right = {lb: a3, a3: rb}

    def splice(self, v: int, link: tuple[int, ...]) -> bool:
        """Put v in place of the link's inner vertices.  Returns False, and
        changes nothing, when the link is not a run of the chain."""
        left, right = self.left, self.right
        if any(right.get(u) != w for u, w in zip(link, link[1:])):
            return False
        for u in link[1:-1]:
            del left[u], right[u]
        w1, wk = link[0], link[-1]
        right[w1] = left[wk] = v
        left[v], right[v] = w1, wk
        return True

    def window(self, v: int) -> list[int]:
        """v and up to two chain neighbours on each side, left to right.

        For an inner chain vertex v these are all the chain pairs that touch
        one of v's two chain edges, and only those."""
        lv, rv = self.left[v], self.right[v]
        win = [lv, v, rv]
        if lv in self.left:
            win.insert(0, self.left[lv])
        if rv in self.right:
            win.append(self.right[rv])
        return win

    def first_fault(
        self, v: int, coords: dict[int, tuple]
    ) -> Optional[tuple[str, int, int]]:
        """The first chain edge (u, w) of v's window, left to right, at which
        the chain stops being strictly convex and x-monotone: ("x", u, w) when
        x does not increase from u to w, ("slope", u, w) when the slope of
        (u, w) does not drop below the previous edge's.  None if neither.

        When every chain edge and pair away from v was checked at an earlier
        step, this finds what a scan of the whole chain would."""
        win = self.window(v)
        for j in range(1, len(win)):
            u, w = win[j - 1], win[j]
            if not coords[u][0] < coords[w][0]:
                return "x", u, w
            if j >= 2 and not slopes_decrease(coords[win[j - 2]], coords[u], coords[w]):
                return "slope", u, w
        return None


def first_faulty_prefix(
    coords: dict[int, tuple], a: SheddingSequence
) -> Optional[tuple[int, Optional[tuple[str, int, int]]]]:
    """The first prefix i whose upper chain is not strictly convex and
    x-monotone, as (i, fault): UpperChain.first_fault's fault, or None when
    the link of a_i is not a run of the chain.  None if every prefix passes.

    The walk is grid_embed's audit walk: prefix 3 is the chain lb, a_3, rb,
    and at step i only the chain edges and pairs in the window around a_i are
    new, since every other edge and consecutive pair of G_i's chain was one
    of G_{i-1}'s.  first_fault checks the window left to right, so the walk
    finds what a scan of every whole chain would, in O(n) over all prefixes.
    """
    lb, rb = a.base_lr
    chain = UpperChain(lb, a.order[2], rb)
    for i in range(3, a.n + 1):
        v = a.order[i - 1]
        if i > 3 and not chain.splice(v, a.link(i)):
            return i, None
        fault = chain.first_fault(v, coords)
        if fault is not None:
            return i, fault
    return None


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, printed the way str(Fraction) prints it."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return f"{num}" if den == 1 else f"{num}/{den}"


def _audit_grid_step(
    i: int,
    work: SheddingSequence,
    chain: UpperChain,
    coords: dict[int, IntPoint],
    zmap: dict[tuple[int, int], tuple[int, int]],
    tpl: ScaledTemplate,
) -> None:
    """P(i,1)-P(i,3) for the prefix G_i of the construction-frame sequence.

    ``chain`` holds the upper chain of G_{i-1} (a fresh UpperChain for
    i = 3) and is spliced to that of G_i here.  Step 3 checks the base
    triangle in full; a later step checks P(i,1) and P(i,2) on the two new
    edges, in boundary-cycle order (read from G_i's cycle head), and P(i,3)
    at the chain pairs around a_i.  grid_embed's docstring has the argument
    that nothing else can fail.
    """
    v = work.order[i - 1]
    if i == 3:
        cyc = work.boundary(3)
        edges = tuple(zip(cyc, cyc[1:] + cyc[:1]))
    else:
        ws = work.link(i)
        if not chain.splice(v, ws):
            raise PropertyViolation(
                i, "correspondence", f"link {ws} of {v} is not a run of the upper chain"
            )
        edges = ((ws[-1], v), (v, ws[0]))
        if work.heads[i - 3] == v:
            edges = edges[::-1]
    for u, w in edges:
        (xu, yu), (xw, yw) = coords[u], coords[w]
        p, q = zmap[edge_key(u, w)]
        (zxp, zyp), (zxq, zyq) = tpl.z[p], tpl.z[q]
        dx, dy = xw - xu, yw - yu
        if dx < 0:
            dx, dy = -dx, -dy
        zdx, zdy = zxq - zxp, zyq - zyp
        if zdx < 0:
            zdx, zdy = -zdx, -zdy
        if dx < zdx:
            raise PropertyViolation(i, "1", f"edge {u}-{w}: x-extent {dx} < template {zdx}")
        # |dy/dx - zdy/zdx| <= i, over the positive dx * zdx
        drift = abs(dy * zdx - zdy * dx)
        if drift > i * dx * zdx:
            raise PropertyViolation(
                i, "2", f"edge {u}-{w}: slope drift {_ratio(drift, dx * zdx)} > {i}"
            )
    fault = chain.first_fault(v, coords)
    if fault is not None:
        test, u, w = fault
        what = "chain x not increasing" if test == "x" else "slopes not strictly decreasing"
        raise PropertyViolation(i, "3", f"{what} at {u}-{w}")


def grid_embed(
    G: PlaneTriangulation, a: SheddingSequence, audit: bool = True
) -> GridEmbedding:
    """Integer drawing of G driven by the shedding sequence a, which must
    have been peeled from G (its links are read as given).

    Raises PropertyViolation / ParallelSupportLines only on implementation
    bugs; for every valid input the audits pass and the result fits the
    4n^3 x 8n^5 grid with (0,0) on the base edge.

    With ``audit`` on, every prefix G_i is checked for P(i,1) (each boundary
    edge's x-extent is at least its template edge's), P(i,2) (its slope is
    within i of the template edge's) and P(i,3) (the upper chain is strictly
    convex), in O(1) per step plus the splice of a_i's link into the tracked
    upper chain.  Step 3 checks the base triangle in full.  At step i >= 4 it
    suffices, by induction on i, to check P(i,1) and P(i,2) on the new edges
    (w_1, a_i) and (a_i, w_k), and P(i,3) at the pairs left(w_1)-w_1-a_i,
    w_1-a_i-w_k and a_i-w_k-right(w_k):

    * every other boundary edge of G_i is a boundary edge of G_{i-1}; it
      keeps its coordinates and its template pair, the edge correspondence
      being fixed once for the whole construction;
    * P(i,1) does not depend on i, and the bound i of P(i,2) only grows, so
      an edge that passed at G_{i-1} passes at G_i;
    * every consecutive chain pair that does not touch a_i was already a
      consecutive pair of G_{i-1}'s chain.

    The first failure is therefore the one a full scan of G_i's boundary
    would report.  A link that is not a run of the tracked chain raises
    PropertyViolation(i, "correspondence").

    The trees are built and reduced once, over G, and the drawing reads the
    reduction as laid out: rs.zmap is the edge correspondence, and rs.f,
    rs.g give each degree-2 step's template face.  A degree-2 step needs no
    check that the two agree: its link edge w_1 w_2 is the parent node of
    the step's two new nodes, and reduce_trees gives that node's zmap entry
    in the same pass as f and g, as the template edge with ends (f[q] - 1,
    g[q] - 1), q = rho[i]; rs.mirrored() maps both sides alike.  When the contracted tree
    is left-heavy (m > m'), the drawing runs over a.mirrored() with the
    mirrored reduction, rs.mirrored(): mirror the reduction, not rebuild
    it.  The frame stays mirrored, since rounding by floor and ceil is not
    symmetric under x -> -x; x is negated at the end.
    """
    n = G.n
    rs = reduce_trees(build_shedding_trees(G, a), a)
    m, mp = rs.internal_counts()
    mirrored = m > mp
    # the sequence and its reduction in the construction frame
    work, rs = (a.mirrored(), rs.mirrored()) if mirrored else (a, rs)
    rt = build_reduced_triangulation(rs)
    tpl = make_template(rt, n)
    zmap = rs.zmap

    lb, rb = work.base_lr
    a3 = a.order[2]
    coords: dict[int, IntPoint] = {lb: tpl.z[0], rb: tpl.z[1], a3: tpl.z[2]}
    records: list[AuditRecord] = [AuditRecord(3, "base", tpl.z[2])]
    chain = UpperChain(lb, a3, rb)
    if audit:
        _audit_grid_step(3, work, chain, coords, zmap, tpl)

    for i in range(4, n + 1):
        ai = a.order[i - 1]
        ws = work.link(i)
        wpts = [coords[w] for w in ws]
        if len(ws) > 2:
            pt = place_high_degree(wpts)
            case = "high"
        else:
            q = rs.rho[i]
            fq, gq = rs.f[q], rs.g[q]
            pt = place_degree_two(wpts[0], wpts[1], tpl.z[fq - 1], tpl.z[gq - 1], tpl.z[q - 1])
            case = "two"
        if not wpts[0][0] < pt[0] < wpts[-1][0]:
            raise PropertyViolation(i, "3", f"new x {pt[0]} not strictly inside the chain span")
        for w_a, w_b in zip(wpts, wpts[1:]):
            if orient2d(w_a, w_b, pt) != 1:
                raise PropertyViolation(i, "3", f"new vertex not strictly above covered edge")
        coords[ai] = pt
        records.append(AuditRecord(i, case, pt))
        if audit:
            _audit_grid_step(i, work, chain, coords, zmap, tpl)

    # frame-independent final invariants
    xs = [p[0] for p in coords.values()]
    ys = [p[1] for p in coords.values()]
    width = max(xs) - min(xs)
    height = max(ys) - min(ys)
    if width != 2 * tpl.alpha * (rt.mprime + 1):
        raise PropertyViolation(n, "width", f"width {width} != 2*alpha*(m'+1)")
    if width > 4 * n**3 or height > 8 * n**5:
        raise PropertyViolation(n, "bounds", f"{width} x {height} exceeds 4n^3 x 8n^5")
    if not (coords[lb][1] == coords[rb][1] == 0 and coords[lb][0] < 0 < coords[rb][0]):
        raise PropertyViolation(n, "base", "(0,0) not interior to the base edge")

    if mirrored:
        coords = {v: (-x, y) for v, (x, y) in coords.items()}
    return GridEmbedding(
        G, a, coords, zmap, tpl, mirrored, tuple(records) if audit else None
    )
