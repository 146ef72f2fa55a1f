"""Independent oracles used by the test suite.

Everything here recomputes expected values by a *different* method than the
library under test: induced subcomplexes instead of incremental deletion,
brute-force permutation enumeration instead of guided search, networkx longest
paths instead of the height recursion, raw formula evaluation for the
worked coordinate examples, full Fraction scans of every prefix boundary
instead of the incremental integer audits of the drawing and the lift, and
the star scan of every face around a vertex's link instead of the lift's one
face per link edge.
It also holds a second, rational drawing, made without the template or any
rounding, for the certificate tests to check, and the copy-on-delete peel
(a fresh PlaneTriangulation per deletion, a full boundary scan per greedy
step) that the mutable peel engine is compared with, and the face-dual
split of a disk along a diagonal that the engine's chord flood is compared
with, and an OFF verify that shares nothing between its certificates, for
the verify that parses the surface disk once, and the lattice grid
generator with its search-and-remove flips, for the one that flips at the
drawn rank, and the disk validator that builds its own maps and edge
census, for the one that reads the disk's cached face map, and the
shedding trees as linked node objects with their after-the-fact
reduction (a parent-chain chase for each node's representative, a stack
walk for the in-order, a bisect search for each template vertex's ends,
each node's template edge read through its representative), for the flat
store and the one forward pass that lays out the template from the links,
and the document, OFF and facet readers with every token through the
error-naming parse, a set of sorted pairs for the OFF edge count and a set
of directed edges for the boundary, for the readers that share one face
map with the one-pass validator.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from dataclasses import replace
from itertools import permutations
from typing import NamedTuple

import networkx as nx

from shedpoly import cli
from shedpoly.embedding import PropertyViolation, UpperChain
from shedpoly.exactgeom import Point2, Point3, floor_plane, orient2d, plane_through
from shedpoly.fileio import (
    ParseError,
    TriangulationFile,
    disk_from_facets,
    read_off,
    sequence_from_order,
)
from shedpoly.griddiam import (
    BadParams,
    GridTriangulation,
    InvariantViolation,
    _rect_boundary,
    _vid,
    _xy,
)
from shedpoly.lifting import LiftedPolyhedron
from shedpoly.reduction import MalformedTreeSequence
from shedpoly.triangulation import (
    InvalidTriangulation,
    NoSheddingVertex,
    PlaneTriangulation,
    SheddingSequence,
    Violation,
    deletion_trace,
    edge_key,
    mirror,
    rot_min_first,
    validate,
)
from shedpoly.verify import (
    Certificate,
    check_face_isomorphic,
    check_grid_bounds,
    check_lift_convex,
    lift_convex_globally,
)


def edges(G: PlaneTriangulation) -> set[tuple[int, int]]:
    """The undirected edges of G as edge_key pairs, read off its triangles."""
    return {edge_key(*e) for a, b, c in G.triangles for e in ((a, b), (b, c), (c, a))}


def induced_disk(G: PlaneTriangulation, ids) -> PlaneTriangulation | None:
    """The induced subcomplex on ``ids`` if it is a triangulated disk, else None.

    The boundary cycle is *derived* from scratch (edges bordered by exactly one
    triangle), not spliced incrementally, so this is independent of the
    library's deletion bookkeeping.
    """
    ids = set(ids)
    tris = [t for t in G.triangles if set(t) <= ids]
    if not tris:
        return None
    directed = set()
    for a, b, c in tris:
        directed.update([(a, b), (b, c), (c, a)])
    rim = [(u, v) for (u, v) in directed if (v, u) not in directed]
    succ = dict(rim)
    if len(succ) != len(rim):
        return None  # some vertex has two outgoing rim edges: not a simple rim
    start = rim[0][0]
    cyc = [start]
    w = succ.get(start)
    while w is not None and w != start and len(cyc) <= len(rim):
        cyc.append(w)
        w = succ.get(w)
    if w != start or len(cyc) != len(rim):
        return None  # rim is not a single cycle
    T = PlaneTriangulation(ids, tris, cyc)
    return T if not validate(T) else None


def is_shedding_sequence(G: PlaneTriangulation, perm) -> bool:
    """Literal definition check: every prefix is a disk, each removal peels a
    boundary vertex of its prefix, and the base edge lies on the boundary.

    The boundary-membership check is not redundant: an interior vertex whose
    link contains a boundary edge can be removed while leaving a disk, yet such
    a removal is not admissible.
    """
    perm = tuple(perm)
    if edge_key(perm[0], perm[1]) not in G.boundary_edges():
        return False
    for i in range(3, len(perm) + 1):
        D = induced_disk(G, perm[:i])
        if D is None:
            return False
        if i >= 4 and perm[i - 1] not in D.boundary:
            return False
    return True


def all_shedding_sequences(G: PlaneTriangulation):
    """Every valid shedding sequence of G, by brute force.  n <= 7 only."""
    assert G.n <= 7, "oracle guard"
    return [p for p in permutations(G.vertices) if is_shedding_sequence(G, p)]


def shedding_definitional(G: PlaneTriangulation, v: int) -> bool:
    """Is G - {v} a disk?  Via the induced-subcomplex route."""
    return induced_disk(G, set(G.vertices) - {v}) is not None


def reduced_node_count(store, R, i: int) -> int:
    """Nodes of the contracted tree T*_i, counted from scratch: the nodes of
    the tree store created at a step <= i that is in the index set R."""
    rset = set(R)
    return sum(1 for nd in store.by_key.values() if nd.step <= i and nd.step in rset)


def tau_by_longest_path(G: PlaneTriangulation, order) -> int:
    """tau(a) as 1 + the longest path (in edges) of the precedence DAG.

    The DAG has an arc a_j -> a_i whenever j < i and a_j a_i is an edge of G
    (prefixes are induced, so adjacency in G suffices).
    """
    pos = {v: i for i, v in enumerate(order)}
    dag = nx.DiGraph()
    dag.add_nodes_from(order)
    for u, v in edges(G):
        if pos[u] < pos[v]:
            dag.add_edge(u, v)
        else:
            dag.add_edge(v, u)
    return nx.dag_longest_path_length(dag) + 1


def min_tau_brute(G: PlaneTriangulation) -> int:
    """Exact minimum of tau over all shedding sequences, brute force (n <= 7)."""
    return min(tau_by_longest_path(G, p) for p in all_shedding_sequences(G))


def high_degree_point(ws) -> tuple[int, int]:
    """Re-derive the high-degree placement from its published formulas.

    Written as a flat sequence of Fraction operations so it shares no code
    with the implementation under test.
    """
    w1, wk = ws[0], ws[-1]
    w2, wk1 = ws[1], ws[-2]
    s = Fraction(w2[1] - w1[1], w2[0] - w1[0])
    u = Fraction(wk[1] - wk1[1], wk[0] - wk1[0])
    assert s > u
    xbar = (Fraction(wk[1]) - Fraction(w1[1]) + s * w1[0] - u * wk[0]) / (s - u)
    ybar = Fraction(w1[1]) + s * (xbar - w1[0])
    xp = -((-xbar.numerator) // xbar.denominator)  # ceil
    gamma = xp - xbar
    gs = gamma * s
    yp = -((-ybar.numerator) // ybar.denominator) + (gs.numerator // gs.denominator) + 1
    return xp, yp


def degree_two_point(w1, w2, b1, b2, apex) -> tuple[int, int]:
    """Re-derive the degree-2 placement from its description, with Fractions.

    The map p -> w2 + lam (p - b2) takes b2 to w2 and b1 to the vertical of
    w1; a shear that fixes the vertical of w2 then moves the image of b1 onto
    w1.  The apex image is rounded with math.floor / math.ceil.
    """
    lam = Fraction(w2[0] - w1[0], b2[0] - b1[0])
    assert lam > 0
    v1 = (w2[0] + lam * (b1[0] - b2[0]), w2[1] + lam * (b1[1] - b2[1]))
    v3 = (w2[0] + lam * (apex[0] - b2[0]), w2[1] + lam * (apex[1] - b2[1]))
    assert v1[0] == w1[0]
    # the shear lowers y by (v1.y - w1.y) at x = w1.x, by 0 at x = w2.x
    share = (v3[0] - w2[0]) / (w1[0] - w2[0])
    y = v3[1] - share * (v1[1] - w1[1])
    x = math.floor(v3[0]) if apex[0] <= 0 else math.ceil(v3[0])
    return x, math.ceil(y)


def _plane3(p1, p2, p3):
    """Plane z = c1 x + c2 y + c3 through three points, by hand-rolled Cramer."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = p1, p2, p3
    det = Fraction((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    assert det != 0
    c1 = Fraction((z2 - z1) * (y3 - y1) - (y2 - y1) * (z3 - z1)) / det
    c2 = Fraction((x2 - x1) * (z3 - z1) - (z2 - z1) * (x3 - x1)) / det
    c3 = Fraction(z1) - c1 * x1 - c2 * y1
    return c1, c2, c3


def greedy_lift_heights(G: PlaneTriangulation, order, coords) -> dict:
    """Minimal integer heights cleared against *every* face of each prefix.

    The library only clears the faces touching the new vertex's predecessors;
    equality of the two recursions is the locality claim under test.
    """
    pos = {v: i + 1 for i, v in enumerate(order)}
    h = {order[0]: 0, order[1]: 0, order[2]: 0}
    for i in range(4, len(order) + 1):
        v = order[i - 1]
        x, y = coords[v]
        best = None
        for t in G.triangles:
            if max(pos[w] for w in t) <= i - 1:
                c1, c2, c3 = _plane3(
                    *((coords[w][0], coords[w][1], h[w]) for w in t)
                )
                val = c1 * x + c2 * y + c3
                if best is None or val > best:
                    best = val
        f = Fraction(best)
        h[v] = f.numerator // f.denominator + 1
    return h


def lift_heights_star_scan(emb, a) -> dict:
    """The lift's heights by the star scan: a_i clears every face of the
    previous prefix that touches a vertex of its link, with integer planes.

    The library reads only the faces across the link edges; equal heights
    are the claim that those faces hold the max.
    """
    G, coords = emb.G, emb.coords
    a = deletion_trace(G, a)
    pos = {v: i + 1 for i, v in enumerate(a.order)}
    birth = {t: max(pos[w] for w in t) for t in G.triangles}
    by_vertex = {v: [] for v in G.vertices}
    for t in G.triangles:
        for w in t:
            by_vertex[w].append(t)
    h = {a.order[0]: 0, a.order[1]: 0, a.order[2]: 0}
    for i in range(4, G.n + 1):
        v = a.order[i - 1]
        x, y = coords[v]
        star = {t for u in a.link(i) for t in by_vertex[u] if birth[t] <= i - 1}
        h[v] = 1 + max(
            floor_plane(plane_through(*(Point3(*coords[w], h[w]) for w in t)), x, y)
            for t in star
        )
    return h


def _facet_planes(P):
    return {t: _plane3(*(P.points[w] for w in t)) for t in P.facets}


def lift_locally_convex(P) -> bool:
    """Across every interior edge, each wing lies strictly above the other's plane."""
    third = {}
    for t in P.facets:
        a, b, c = t
        third[(a, b)] = c
        third[(b, c)] = a
        third[(c, a)] = b
    planes = _facet_planes(P)
    by_edge = {}
    for t in P.facets:
        a, b, c = t
        for u, v in ((a, b), (b, c), (c, a)):
            by_edge[(u, v)] = planes[t]
    for (u, v), w in third.items():
        if (v, u) not in third:
            continue
        t = third[(v, u)]
        c1, c2, c3 = by_edge[(u, v)]
        x, y, z = P.points[t]
        if not z > c1 * x + c2 * y + c3:
            return False
    return True


def lift_globally_convex(P) -> bool:
    """Every lifted vertex on-or-above every facet plane; strictly above the
    planes of facets it does not belong to.  Brute force, small n only."""
    planes = _facet_planes(P)
    for t, (c1, c2, c3) in planes.items():
        for v, (x, y, z) in P.points.items():
            val = c1 * x + c2 * y + c3
            if v in t:
                if z != val:
                    return False
            elif not z > val:
                return False
    return True


def _inner_side(P, t) -> int:
    """+1 (above) for surface facets, -1 (below) for a truncated lift's top."""
    return -1 if P.truncated is not None and t == P.truncated else 1


def lift_convex_local_certificate(P) -> Certificate:
    """Fraction reference for verify.check_lift_convex: the same scan order,
    witness and text, with every plane as three Fractions from _plane3."""
    kind = "lift-convex-local"
    planes = _facet_planes(P)
    wings = {}
    for t in P.facets:
        for e in (edge_key(t[0], t[1]), edge_key(t[1], t[2]), edge_key(t[0], t[2])):
            wings.setdefault(e, []).append(t)
    for e in sorted(wings):
        inc = wings[e]
        if len(inc) == 1:
            continue
        if len(inc) > 2:
            return Certificate(kind, False, e, f"edge on {len(inc)} facets")
        for t, other in ((inc[0], inc[1]), (inc[1], inc[0])):
            c1, c2, c3 = planes[t]
            (w,) = set(other) - set(e)
            x, y, z = P.points[w]
            if _inner_side(P, t) * (z - (c1 * x + c2 * y + c3)) <= 0:
                return Certificate(
                    kind, False, e, f"facets {t} and {other} not strictly convex across it"
                )
    return Certificate(kind, True, None, f"{len(wings)} edges, all shared ones strictly convex")


def lift_convex_global_certificate(P) -> Certificate:
    """Fraction reference for verify.lift_convex_globally: every vertex
    against every facet plane, in the same scan order, with the same witness
    and text."""
    kind = "lift-convex-global"
    planes = _facet_planes(P)
    for t in P.facets:
        c1, c2, c3 = planes[t]
        for v in sorted(P.points):
            x, y, z = P.points[v]
            d = z - (c1 * x + c2 * y + c3)
            if v in t:
                if d != 0:
                    return Certificate(kind, False, (t, v), "facet vertex off its own plane")
            elif _inner_side(P, t) * d <= 0:
                return Certificate(kind, False, (t, v), "vertex not strictly inside facet plane")
    return Certificate(
        kind, True, None, f"{len(P.facets)} facets support all {len(P.points)} vertices"
    )


def _seg_overlap_1d(a, b, c, d):
    """Closed-interval intersection [a,b] cap [c,d]: None, a point, or 'many'."""
    lo, hi = max(min(a, b), min(c, d)), min(max(a, b), max(c, d))
    if lo > hi:
        return None
    return lo if lo == hi else "many"


def segment_common(p1, p2, q1, q2):
    """Intersection of two closed segments by parametric solve, exact.

    Returns None when disjoint, the common point when they meet in exactly
    one point, and the string 'overlap' for a shared sub-segment.  Endpoints
    are Fraction (or int) pairs.
    """
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (q2[0] - q1[0], q2[1] - q1[1])
    w = (q1[0] - p1[0], q1[1] - p1[1])
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det != 0:
        t = Fraction(w[0] * d2[1] - w[1] * d2[0], det)
        u = Fraction(w[0] * d1[1] - w[1] * d1[0], det)
        if 0 <= t <= 1 and 0 <= u <= 1:
            return (p1[0] + t * d1[0], p1[1] + t * d1[1])
        return None
    if w[0] * d1[1] - w[1] * d1[0] != 0:
        return None  # parallel, distinct carriers
    # collinear: parametrize the common line by the dominant axis of d1
    k = 0 if d1[0] != 0 else 1
    got = _seg_overlap_1d(p1[k], p2[k], q1[k], q2[k])
    if got is None:
        return None
    if got == "many":
        return "overlap"
    if k == 0:
        t = Fraction(got - p1[0], d1[0])
        return (got, p1[1] + t * d1[1])
    t = Fraction(got - p1[1], d1[1])
    return (p1[0] + t * d1[0], got)


def straight_line_plane(G: PlaneTriangulation, coords) -> bool:
    """Is drawing G's edges straight at coords a plane embedding of G with
    every face counterclockwise?  All-pairs exact segment test, small n."""
    pts = {v: (Fraction(coords[v][0]), Fraction(coords[v][1])) for v in G.vertices}
    if len(set(pts.values())) != len(pts):
        return False
    for a, b, c in G.triangles:
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
            return False
    edges = sorted(
        {
            edge_key(x, y)
            for t in G.triangles
            for x, y in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))
        }
    )
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            got = segment_common(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]])
            if got is None:
                continue
            if got == "overlap":
                return False
            if got not in {pts[v] for v in set(e) & set(f)}:
                return False
    return True


def chain_from_cycle(cyc, lb):
    """Upper chain left to right: the ccw cycle read backwards from lb."""
    j = cyc.index(lb)
    rot = cyc[j:] + cyc[:j]
    return (rot[0],) + tuple(reversed(rot[2:])) + (rot[1],)


def _fslope(p, q) -> Fraction:
    return Fraction(q[1] - p[1], q[0] - p[0])


def template_slopes(tpl, j):
    """Slopes of every boundary edge of the scaled template prefix Z_j:
    the upper chain left to right, then the base edge.  The prefix is the
    induced disk on template ids 0..j-1 of Gstar, its rim derived from the
    faces; the slopes are taken between the scaled points tpl.z."""
    D = induced_disk(tpl.rt.Gstar, range(j))
    chain = chain_from_cycle(D.boundary, 0)
    return [_fslope(tpl.z[u], tpl.z[v]) for u, v in zip(chain, chain[1:])] + [Fraction(0)]


def template_max_slope(tpl):
    """Largest |slope| of a boundary edge of the whole scaled template."""
    return max(abs(s) for s in template_slopes(tpl, tpl.rt.Gstar.n))


def grid_audit_oracle(i, coords, cyc, lb, zmap, tpl) -> None:
    """The per-step audit of grid_embed over the whole boundary of G_i.

    Scans every boundary edge for P(i,1) and P(i,2) and the whole upper
    chain for P(i,3), with Fraction slopes, and raises the first
    PropertyViolation a full scan meets: O(b_i) per prefix, where the library
    checks only what step i can change.
    """
    b = len(cyc)
    for j in range(b):
        u, v = cyc[j], cyc[(j + 1) % b]
        zp, zq = (tpl.z[t] for t in zmap[edge_key(u, v)])
        dx = abs(coords[u][0] - coords[v][0])
        zdx = abs(zp[0] - zq[0])
        if dx < zdx:
            raise PropertyViolation(i, "1", f"edge {u}-{v}: x-extent {dx} < template {zdx}")
        dev = abs(_fslope(coords[u], coords[v]) - _fslope(zp, zq))
        if dev > i:
            raise PropertyViolation(i, "2", f"edge {u}-{v}: slope drift {dev} > {i}")
    chain = chain_from_cycle(cyc, lb)
    prev = None
    for u, v in zip(chain, chain[1:]):
        s = _fslope(coords[u], coords[v])
        if prev is not None and not s < prev:
            raise PropertyViolation(i, "3", f"slopes not strictly decreasing at {u}-{v}")
        prev = s


def construction_frame(emb):
    """(sequence, left and right base vertex, coords) of a GridEmbedding in
    the frame it was built in: over mirror(G), x negated, when mirrored."""
    work = emb.sequence.mirrored() if emb.mirrored else emb.sequence
    lb, rb = base_lr(work.G, work.order)
    sx = -1 if emb.mirrored else 1
    return work, lb, rb, {v: (sx * x, y) for v, (x, y) in emb.coords.items()}


def grid_audit_every_prefix(emb) -> None:
    """grid_audit_oracle on every prefix G_3..G_n of a finished drawing."""
    work, lb, _, coords = construction_frame(emb)
    for i in range(3, work.n + 1):
        grid_audit_oracle(i, coords, work.boundary(i), lb, emb.correspondence, emb.template)


def upper_chain_fault(coords, cyc, lb):
    """The leftmost edge u-v at which the upper chain of the ccw cycle is not
    strictly convex and x-monotone, as "chain x not increasing at u-v" or
    "chain slopes not strictly decreasing at u-v"; None if there is none.
    Reads coords of the cycle's vertices only."""
    chain = chain_from_cycle(cyc, lb)
    prev = None
    for u, v in zip(chain, chain[1:]):
        if not coords[u][0] < coords[v][0]:
            return f"chain x not increasing at {u}-{v}"
        s = _fslope(coords[u], coords[v])
        if prev is not None and not s < prev:
            return f"chain slopes not strictly decreasing at {u}-{v}"
        prev = s
    return None


def sequentially_convex_oracle(coords, a):
    """Message of the first prefix whose whole upper chain is not strictly
    convex and x-monotone (leftmost offending edge), or None."""
    a1, a2 = a.order[0], a.order[1]
    for i in range(3, a.n + 1):
        cyc = a.boundary(i)
        lb = a1 if cyc[(cyc.index(a1) + 1) % len(cyc)] == a2 else a2
        fault = upper_chain_fault(coords, cyc, lb)
        if fault is not None:
            return f"prefix {i}: {fault}"
    return None


# -- an independent rational drawing -------------------------------------------


class EmptyRegion(Exception):
    """The support-line region has no interior; must never fire on valid input."""


class _Line(NamedTuple):
    point: Point2
    s: Fraction

    def at(self, x: Fraction) -> Fraction:
        return self.point.y + self.s * (x - self.point.x)

    def intercept(self) -> Fraction:
        return self.point.y - self.s * self.point.x


def _intersect(l1: _Line, l2: _Line) -> Point2:
    """The common point of two lines of different slopes."""
    x = (l2.intercept() - l1.intercept()) / (l1.s - l2.s)
    return Point2(x, l1.at(x))


def _region_point(constraints: list[tuple[_Line, str]]) -> Point2:
    """A rational point strictly inside the intersection of half-planes.

    Takes the centroid of the corner points of the (bounded) feasible region;
    raises EmptyRegion if that fails, which valid inputs never trigger.
    """
    uniq: dict[tuple[Fraction, Fraction], tuple[_Line, str]] = {}
    for ln, sense in constraints:
        uniq.setdefault((ln.s, ln.intercept()), (ln, sense))
    lines = list(uniq.values())

    def feasible(p: Point2, strict: bool) -> bool:
        for ln, sense in lines:
            yl = ln.at(p.x)
            if sense == "below":
                ok = p.y < yl if strict else p.y <= yl
            else:
                ok = p.y > yl if strict else p.y >= yl
            if not ok:
                return False
        return True

    corners: set[tuple[Fraction, Fraction]] = set()
    for idx in range(len(lines)):
        for jdx in range(idx + 1, len(lines)):
            l1, l2 = lines[idx][0], lines[jdx][0]
            if l1.s == l2.s:
                continue
            p = _intersect(l1, l2)
            if feasible(p, strict=False):
                corners.add((p.x, p.y))
    if len(corners) < 3:
        raise EmptyRegion(f"only {len(corners)} feasible corners")
    cx = sum((c[0] for c in corners), Fraction(0)) / len(corners)
    cy = sum((c[1] for c in corners), Fraction(0)) / len(corners)
    pt = Point2(cx, cy)
    if not feasible(pt, strict=True):
        raise EmptyRegion("centroid not strictly interior")
    return pt


def rational_embed(
    G: PlaneTriangulation, a: SheddingSequence, audit: bool = True
) -> dict[int, Point2]:
    """Rational sequentially convex drawing with base (0,0)-(2,0), apex (1,1),
    made without the template or any rounding: each new vertex goes to the
    centroid of the corners of the region cut out by four support lines.

    The base endpoint that is leftmost is the one the copy-on-delete peel's
    G_3 cycle says (base_lr); a's links are read as given, so a must have
    been peeled from G or from a disk equal to it.  The outer support lines
    at w_1 and w_k run along the chain edges beyond the link, read off the
    tracked UpperChain; the audit checks the chain window around each new
    vertex, which by the induction in grid_embed's docstring is the whole
    prefix chain's convexity.
    """
    lb, rb = base_lr(G, a.order)
    a3 = a.order[2]
    coords: dict[int, Point2] = {
        lb: Point2(Fraction(0), Fraction(0)),
        rb: Point2(Fraction(2), Fraction(0)),
        a3: Point2(Fraction(1), Fraction(1)),
    }
    chain = UpperChain(lb, a3, rb)
    for i in range(4, a.n + 1):
        ai = a.order[i - 1]
        ws = a.link(i)
        # the splice keeps chain.left[w1] and chain.right[wk]
        if not chain.splice(ai, ws):
            raise EmptyRegion(f"step {i}: link {ws} of {ai} is not a run of the upper chain")
        w1, wk = ws[0], ws[-1]
        p1, pk = coords[w1], coords[wk]
        s2 = _fslope(p1, coords[ws[1]])
        s3 = _fslope(coords[ws[-2]], pk)
        if w1 == lb:
            l1 = _Line(p1, s2 + 1)
        else:
            l1 = _Line(p1, _fslope(coords[chain.left[w1]], p1))
        if wk == rb:
            l4 = _Line(pk, s3 - 1)
        else:
            l4 = _Line(pk, _fslope(pk, coords[chain.right[wk]]))
        pt = _region_point(
            [(l1, "below"), (_Line(p1, s2), "above"), (_Line(pk, s3), "above"), (l4, "below")]
        )
        for w_a, w_b in zip(ws, ws[1:]):
            if orient2d(coords[w_a], coords[w_b], pt) != 1:
                raise EmptyRegion(f"step {i}: chosen point not above covered edge {w_a}-{w_b}")
        coords[ai] = pt
        if audit and chain.first_fault(ai, coords) is not None:
            raise EmptyRegion(f"step {i}: prefix chain lost strict convexity")
    return coords


# -- the disk validator (reference for triangulation.validate) -----------------


def validate_reference(G: PlaneTriangulation) -> list[Violation]:
    """triangulation._validate as it was before it read G's cached maps:
    it builds its own directed-edge set, per-vertex rotations, boundary
    successor and predecessor maps and an undirected edge census, and runs
    every census and Euler check in full.  validate must return exactly
    this list, code and detail, on every input."""
    out: list[Violation] = []
    verts = set(G.vertices)
    n = len(verts)
    if len(G.vertices) != len(set(G.vertices)):
        out.append(Violation("bad-vertices", "duplicate vertex ids"))
        return out
    if n < 3:
        out.append(Violation("too-small", f"n={n} < 3"))
        return out

    for t in G.triangles:
        if len(set(t)) != 3 or not set(t) <= verts:
            out.append(Violation("bad-face", f"triangle {t} malformed"))
            return out
    face_sets = [frozenset(t) for t in G.triangles]
    if len(set(face_sets)) != len(face_sets):
        out.append(Violation("bad-face", "duplicate face"))
        return out

    directed: dict[tuple[int, int], int] = {}
    for a, b, c in G.triangles:
        for e in ((a, b), (b, c), (c, a)):
            if e in directed:
                out.append(Violation("orientation", f"directed edge {e} in two triangles"))
                return out
            directed[e] = 1

    cyc = G.boundary
    b = len(cyc)
    if b < 3 or len(set(cyc)) != b or not set(cyc) <= verts:
        out.append(Violation("bad-boundary", f"boundary cycle {cyc} not simple"))
        return out
    for i in range(b):
        u, v = cyc[i], cyc[(i + 1) % b]
        if (u, v) not in directed:
            out.append(
                Violation("bad-boundary", f"boundary step {u}->{v} not a ccw triangle edge")
            )
            return out
        if (v, u) in directed:
            out.append(
                Violation("bad-boundary", f"boundary edge {u}-{v} has triangles on both sides")
            )
            return out

    # undirected edge census: boundary edges border 1 triangle, interior 2
    und: dict[tuple[int, int], int] = {}
    for e in directed:
        k = edge_key(*e)
        und[k] = und.get(k, 0) + 1
    bedges = {edge_key(cyc[i], cyc[(i + 1) % b]) for i in range(b)}
    for e, cnt in und.items():
        if e in bedges:
            if cnt != 1:
                out.append(Violation("bad-boundary", f"boundary edge {e} in {cnt} triangles"))
                return out
        elif cnt != 2:
            out.append(Violation("open-edge", f"interior edge {e} in {cnt} triangle(s)"))
            return out

    if len(G.triangles) != 2 * n - b - 2:
        out.append(
            Violation(
                "euler", f"#triangles={len(G.triangles)} != 2n-b-2={2 * n - b - 2}"
            )
        )
        return out
    if len(und) != 3 * n - b - 3:
        out.append(Violation("euler", f"#edges={len(und)} != 3n-b-3={3 * n - b - 3}"))
        return out

    # single fan (boundary vertex) / single cycle (interior vertex) of faces
    succ_at: dict[int, dict[int, int]] = {v: {} for v in verts}
    for a2, b2, c2 in G.triangles:
        succ_at[a2][b2] = c2
        succ_at[b2][c2] = a2
        succ_at[c2][a2] = b2
    bset = set(cyc)
    bsucc = {cyc[i]: cyc[(i + 1) % b] for i in range(b)}
    bpred = {v: u for u, v in bsucc.items()}
    adj: dict[int, set[int]] = {v: set() for v in G.vertices}
    for a2, b2, c2 in G.triangles:
        adj[a2].update((b2, c2))
        adj[b2].update((a2, c2))
        adj[c2].update((a2, b2))
    for v in G.vertices:
        nbrs = adj[v]
        if not nbrs:
            out.append(Violation("disconnected", f"isolated vertex {v}"))
            return out
        rot = succ_at[v]
        if v in bset:
            start, stop = bsucc[v], bpred[v]
            seen = {start}
            w = start
            while w != stop:
                w = rot.get(w, -1)
                if w < 0 or w in seen:
                    out.append(Violation("pinched-vertex", f"faces at {v} are not a single fan"))
                    return out
                seen.add(w)
            if seen != nbrs:
                out.append(Violation("pinched-vertex", f"fan at {v} misses neighbors"))
                return out
        else:
            start = next(iter(nbrs))
            seen = {start}
            w = rot.get(start, -1)
            while w >= 0 and w != start:
                if w in seen:
                    break
                seen.add(w)
                w = rot.get(w, -1)
            if w != start or seen != nbrs:
                out.append(
                    Violation("pinched-vertex", f"faces at interior {v} are not a single cycle")
                )
                return out

    # connectivity (the fan conditions make this almost redundant, but cheap)
    stack = [G.vertices[0]]
    reached = {G.vertices[0]}
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if reached != verts:
        out.append(Violation("disconnected", f"{len(verts) - len(reached)} vertices unreachable"))
        return out

    if G.coords is not None:
        missing = verts - set(G.coords)
        if missing:
            out.append(Violation("bad-coords", f"coords missing for {sorted(missing)[:5]}"))
            return out

    return out


# -- the copy-on-delete peel (reference for triangulation.PeelEngine) ----------


class NotBoundary(InvalidTriangulation):
    """Vertex expected to be on the boundary cycle is interior (or absent)."""


def link_of_boundary_vertex(G: PlaneTriangulation, v: int) -> tuple[int, ...]:
    """Neighbors w_1..w_k of boundary vertex v, ordered left to right.

    "Left" is the ccw-successor side: w_1 is v's successor on the boundary
    cycle, w_k its predecessor, and consecutive w_j, w_{j+1} span a face with v.
    """
    if v not in G.boundary:
        raise NotBoundary(f"vertex {v} is not on the boundary")
    third = G.third()
    w = G.boundary_succ()[v]
    stop = G.boundary_pred()[v]
    link = [w]
    while w != stop:
        w = third[(v, w)]
        link.append(w)
    return tuple(link)


def delete_boundary_vertex(
    G: PlaneTriangulation, v: int
) -> tuple[PlaneTriangulation, tuple[int, ...]]:
    """Remove boundary vertex v; returns (new triangulation, link of v).  The
    result is not validated here; validate(result) is the literal definition
    that is_shedding_vertex must agree with."""
    link = link_of_boundary_vertex(G, v)
    tris = tuple(t for t in G.triangles if v not in t)
    i = G.boundary.index(v)
    cyc = G.boundary[:i] + tuple(reversed(link[1:-1])) + G.boundary[i + 1 :]
    coords = None
    if G.coords is not None:
        coords = {u: xy for u, xy in G.coords.items() if u != v}
    H = PlaneTriangulation((u for u in G.vertices if u != v), tris, cyc, coords)
    return H, link


def is_shedding_vertex(G: PlaneTriangulation, v: int) -> bool:
    """True iff G - {v} is again a plane triangulation, by the O(deg v)
    criterion: no middle vertex of v's link lies on the boundary."""
    if G.n < 4:
        raise InvalidTriangulation(f"shedding undefined for n={G.n} < 4")
    bset = set(G.boundary)
    if v not in bset:
        raise NotBoundary(f"vertex {v} is not on the boundary")
    link = link_of_boundary_vertex(G, v)
    return not any(w in bset for w in link[1:-1])


class Peel:
    """The copy-on-delete deletion loop: a fresh PlaneTriangulation ``H`` per
    deletion.  Same checks, records and error texts as PeelEngine.

    ``cycles`` keeps the boundary of every prefix, G_n first: the reference
    for SheddingSequence.boundary.  ``sequence`` checks that the finished
    sequence derives each of them, rotation included, and that its mirror
    derives those of a copy-on-delete peel of mirror(G)."""

    def __init__(self, G: PlaneTriangulation):
        self.G = G
        self.H = G
        self._removed: list[int] = []
        self._links: list[tuple[int, ...]] = []
        self.cycles: list[tuple[int, ...]] = [G.boundary]

    def run(self, victims) -> "Peel":
        for v in victims:
            H = self.H
            if not (H.n > 3 and v in H.boundary and is_shedding_vertex(H, v)):
                raise InvalidTriangulation(
                    f"a_{H.n} = {v} is not a shedding vertex of its prefix"
                )
            self.H, link = delete_boundary_vertex(H, v)
            self._removed.append(v)
            self._links.append(link)
            self.cycles.append(self.H.boundary)
        return self

    def sequence(self, base) -> SheddingSequence:
        if validate(self.H) or set(base) != set(self.H.vertices):
            raise InvalidTriangulation("prefix G_3 is not a triangle")
        a = SheddingSequence(
            self.G,
            tuple(base) + tuple(reversed(self._removed)),
            tuple(reversed(self._links)),
        )
        assert_boundaries(a, self.cycles)
        assert_boundaries(a.mirrored(), Peel(mirror(self.G)).run(self._removed).cycles)
        return a


def base_lr(G: PlaneTriangulation, order) -> tuple[int, int]:
    """(a_1, a_2) in the order in which the copy-on-delete peel's G_3 cycle
    runs: the left and right base vertex of a drawing along order."""
    cyc = Peel(G).run(reversed(order[3:])).H.boundary
    a1, a2 = order[:2]
    return (a1, a2) if cyc[(cyc.index(a1) + 1) % 3] == a2 else (a2, a1)


def assert_boundaries(a: SheddingSequence, cycles) -> None:
    """a.boundary(i) is cycles[n - i] for every i = 3..n, rotation included."""
    for i in range(3, a.n + 1):
        assert a.boundary(i) == cycles[a.n - i], (i, a.boundary(i), cycles[a.n - i])


def peel_order_reference(G: PlaneTriangulation, order) -> SheddingSequence:
    """triangulation.peel_order over the copy-on-delete Peel."""
    order = tuple(order)
    if sorted(order) != list(G.vertices):
        raise InvalidTriangulation("order is not a permutation of the vertices")
    if edge_key(order[0], order[1]) not in G.boundary_edges():
        raise InvalidTriangulation(
            f"({order[0]},{order[1]}) is not a boundary edge of the triangulation"
        )
    return Peel(G).run(reversed(order[3:])).sequence(order[:3])


def shedding_sequence_reference(G: PlaneTriangulation, u: int, v: int) -> SheddingSequence:
    """triangulation.shedding_sequence by a full scan of the boundary at every
    step over the copy-on-delete Peel."""
    if edge_key(u, v) not in G.boundary_edges():
        raise InvalidTriangulation(f"({u},{v}) is not a boundary edge")
    peel = Peel(G)

    def greedy():
        while peel.H.n > 3:
            H = peel.H
            picked = next(
                (w for w in sorted(H.boundary) if w != u and w != v and is_shedding_vertex(H, w)),
                None,
            )
            if picked is None:
                raise NoSheddingVertex(f"no shedding vertex at n={H.n}")
            yield picked

    peel.run(greedy())
    (w3,) = [w for w in peel.H.vertices if w != u and w != v]
    return peel.sequence((u, v, w3))


# -- the lattice grid generator (reference for griddiam.gen_grid_triangulation) --


def gen_grid_triangulation_reference(p: int, q: int, ell: int, seed: int = 0) -> GridTriangulation:
    """Random triangulation of the p x q lattice with edges inside ell x ell:
    griddiam.gen_grid_triangulation as it was before it flipped at the drawn
    rank, kept with its tris set, its per-face rotations and its
    search-and-remove on the sorted interior edge list.

    Each unit cell gets a random diagonal; for ell > 2 roughly 10*p*q random
    edge flips then inject longer edges (a flip is applied only when the
    surrounding quadrilateral is strictly convex and the new edge still fits
    an ell x ell subgrid).  Deterministic for a fixed seed.
    """
    if not 2 <= ell <= min(p, q):
        raise BadParams(f"need 2 <= ell <= min(p, q), got ell={ell}, p={p}, q={q}")
    rng = random.Random(seed)
    coords = {v: _xy(p, v) for v in range(p * q)}
    tris: set[tuple[int, int, int]] = set()
    third: dict[tuple[int, int], int] = {}

    def add(t: tuple[int, int, int]) -> None:
        t = rot_min_first(t)
        tris.add(t)
        a, b, c = t
        third[(a, b)] = c
        third[(b, c)] = a
        third[(c, a)] = b

    def drop(t: tuple[int, int, int]) -> None:
        t = rot_min_first(t)
        tris.remove(t)
        a, b, c = t
        del third[(a, b)], third[(b, c)], third[(c, a)]

    for cy in range(1, q):
        for cx in range(1, p):
            a, b = _vid(p, cx, cy), _vid(p, cx + 1, cy)
            c, d = _vid(p, cx + 1, cy + 1), _vid(p, cx, cy + 1)
            if rng.random() < 0.5:
                add((a, b, c))
                add((a, c, d))
            else:
                add((a, b, d))
                add((b, c, d))

    if ell > 2:
        from bisect import insort

        interior = sorted({edge_key(*k) for k in third if (k[1], k[0]) in third})
        pt = {v: Point2(*xy) for v, xy in coords.items()}
        for _ in range(10 * p * q):
            u, v = interior[rng.randrange(len(interior))]
            c = third[(u, v)]
            d = third[(v, u)]
            nk = edge_key(c, d)
            cx_, cy_ = coords[c]
            dx_, dy_ = coords[d]
            if abs(cx_ - dx_) > ell - 1 or abs(cy_ - dy_) > ell - 1:
                continue
            if nk in third or (nk[1], nk[0]) in third:
                continue
            if orient2d(pt[c], pt[d], pt[u]) * orient2d(pt[c], pt[d], pt[v]) >= 0:
                continue
            if orient2d(pt[u], pt[v], pt[c]) * orient2d(pt[u], pt[v], pt[d]) >= 0:
                continue
            drop((u, v, c))
            drop((v, u, d))
            add((c, u, d))
            add((d, v, c))
            interior.remove((u, v))
            insort(interior, nk)

    T = PlaneTriangulation(
        range(p * q),
        sorted(tris),
        _rect_boundary(p, q),
        coords,
    )
    errs = validate(T)
    if errs:
        raise InvariantViolation(f"generated grid invalid: {errs[0]}")
    return GridTriangulation(p, q, ell, T)


# -- diagonals and regions (reference for PeelEngine.chord_sides) ----------------


class NotADiagonal(InvalidTriangulation):
    """Edge expected to be a diagonal (interior edge with boundary endpoints) is not."""


def diagonals(G: PlaneTriangulation) -> list[tuple[int, int]]:
    """Interior edges whose endpoints are both boundary vertices, sorted."""
    bs = set(G.boundary)
    bedges = G.boundary_edges()
    return sorted(e for e in edges(G) if e not in bedges and e[0] in bs and e[1] in bs)


def split_by_diagonal(
    G: PlaneTriangulation, diag: tuple[int, int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Vertex sets strictly inside the two components of the disk minus a
    diagonal, by a flood over the dual graph of faces that crosses neither
    the diagonal nor a boundary edge.

    Returned deterministically: first the component on the left of the
    directed edge (min id -> max id), then the other.  The diagonal's own
    endpoints belong to neither side.
    """
    u, v = edge_key(*diag)
    bset = set(G.boundary)
    bedges = G.boundary_edges()
    if (u, v) not in edges(G) or (u, v) in bedges or u not in bset or v not in bset:
        raise NotADiagonal(f"({u},{v}) is not a diagonal")
    tri_of: dict[tuple[int, int], tuple[int, int, int]] = {}
    for t in G.triangles:
        a, b, c = t
        tri_of[(a, b)] = t
        tri_of[(b, c)] = t
        tri_of[(c, a)] = t

    def flood(start: tuple[int, int, int]) -> frozenset[int]:
        comp = {start}
        stack = [start]
        while stack:
            a, b, c = stack.pop()
            for x, y in ((a, b), (b, c), (c, a)):
                if edge_key(x, y) == (u, v) or edge_key(x, y) in bedges:
                    continue
                nbr = tri_of.get((y, x))
                if nbr is not None and nbr not in comp:
                    comp.add(nbr)
                    stack.append(nbr)
        return frozenset(x for t in comp for x in t) - {u, v}

    return flood(tri_of[(u, v)]), flood(tri_of[(v, u)])


# -- read-outs of library structures that only the tests use ----------------------


def _shape(root, children):
    """Nested (left, right) tuples of the binary tree under root, built
    bottom-up with an explicit stack so deep trees do not recurse."""
    done: dict = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        kids = children(node)
        if expanded:
            done[node] = tuple(None if c is None else done.pop(c) for c in kids)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if c is not None)
    return done[root]


class TreeNode:
    """A node of the reference shedding trees: an undirected boundary edge
    with the step that created it and its parent and child links."""

    __slots__ = ("key", "step", "parent", "left", "right")

    def __init__(self, key, step: int, parent):
        self.key = key
        self.step = step
        self.parent = parent
        self.left = None
        self.right = None

    def __repr__(self) -> str:
        return f"TreeNode({self.key}, step={self.step})"


class TreeStore:
    """Reference node store for the whole family T_2..T_n: T_i is the set of
    nodes created at a step <= i."""

    def __init__(self, root_key, n: int):
        self.n = n
        self.root = TreeNode(root_key, 2, None)
        self.by_key = {root_key: self.root}
        # created[i] = (left-attached node, right-attached node) for step i >= 3
        self.created = {}

    def add_pair(self, i: int, nu_key, xi_key, nup_key, xip_key):
        xi = self.by_key[xi_key]
        xip = self.by_key[xip_key]
        if nu_key in self.by_key or nup_key in self.by_key:
            raise MalformedTreeSequence(f"edge node created twice at step {i}")
        if xi.left is not None or xip.right is not None:
            raise MalformedTreeSequence(f"child slot already taken at step {i}")
        nu = TreeNode(nu_key, i, xi)
        nup = TreeNode(nup_key, i, xip)
        xi.left = nu
        xip.right = nup
        self.by_key[nu_key] = nu
        self.by_key[nup_key] = nup
        self.created[i] = (nu, nup)


def reference_trees(a: SheddingSequence) -> TreeStore:
    """The shedding trees of a as linked node objects: a_i w_1 the left child
    of w_1 w_2 and a_i w_k the right child of w_{k-1} w_k, the link of a_3
    being a.base_lr."""
    store = TreeStore(edge_key(*a.order[:2]), a.n)
    for i, (ai, link) in enumerate(zip(a.order[2:], (a.base_lr,) + a.links), start=3):
        store.add_pair(
            i,
            edge_key(ai, link[0]),
            edge_key(link[0], link[1]),
            edge_key(ai, link[-1]),
            edge_key(link[-2], link[-1]),
        )
    return store


class ReferenceReduction(NamedTuple):
    """The contraction of a reference store: the index set R of steps of
    degree <= 2, rho its ranks, h[i-1] = #{r in R : r <= i}, each node's
    representative, and pairs[q] = (reduced parent, left node, right node)
    keys for template step q >= 3."""

    store: TreeStore
    R: tuple
    rho: dict
    h: tuple
    rep: dict
    pairs: dict

    @property
    def n(self) -> int:
        return self.store.n


def reference_reduction(a: SheddingSequence) -> ReferenceReduction:
    """The contraction of reference_trees(a), every field tabulated from its
    definition, representatives by reference_rep's parent chase."""
    store = reference_trees(a)
    n = store.n
    R = (1, 2, 3) + tuple(i for i in range(4, n + 1) if a.degrees[i - 1] == 2)
    rho = {i: q for q, i in enumerate(R, start=1)}
    h = tuple(sum(1 for r in R if r <= i) for i in range(1, n + 1))
    rep = reference_rep(store, R)
    pairs = {}
    for i in R[2:]:
        nu, nup = store.created[i]
        pairs[rho[i]] = (rep[nu.parent.key], nu.key, nup.key)
    return ReferenceReduction(store, R, rho, h, rep, pairs)


class SheddingTree(NamedTuple):
    """View of the tree T_i: the nodes of a reference store with step <= i."""

    store: TreeStore
    upto: int


def shedding_trees(store: TreeStore) -> tuple[SheddingTree, ...]:
    """The views T_2..T_n of a reference TreeStore, T_i at index i - 2."""
    return tuple(SheddingTree(store, i) for i in range(2, store.n + 1))


def tree_shape(T):
    """Canonical nested-tuple form (left, right) of the shedding tree T_i
    (a SheddingTree view), None for an absent child."""

    def child(c):
        return c if c is not None and c.step <= T.upto else None

    return _shape(T.store.root, lambda nd: (child(nd.left), child(nd.right)))


def node_count(T) -> int:
    """Nodes of the shedding tree T_i: those of its store created at step <= i."""
    return sum(1 for nd in T.store.by_key.values() if nd.step <= T.upto)


def h_of(rs, i: int) -> int:
    """h(i) = #{r in R : r <= i} of a ReferenceReduction."""
    return rs.h[i - 1]


def reduced_shape(rs, i: int):
    """Nested-tuple form of the contracted tree T*_i, as tree_shape."""
    kids = {pk: (lk, rk) for q, (pk, lk, rk) in rs.pairs.items() if rs.R[q - 1] <= i}
    return _shape(rs.store.root.key, lambda k: kids.get(k, (None, None)))


def reference_rep(store, R) -> dict:
    """Each node key of the store mapped to its representative in the
    contracted tree: the nearest ancestor-or-self created at a step of R,
    found by chasing parent links."""
    rset = set(R)
    out = {}
    for nd in store.by_key.values():
        top = nd
        while top.step not in rset:
            top = top.parent
        out[nd.key] = top.key
    return out


def reference_inorder(rs) -> list:
    """Keys of the internal nodes of T*_n in in-order, walked with a stack
    over the contracted tree's child pairs."""
    kids = {pk: (lk, rk) for pk, lk, rk in rs.pairs.values()}
    out, stack = [], []
    key = rs.store.root.key
    while stack or key is not None:
        while key is not None:
            stack.append(key)
            key = kids[key][0] if key in kids else None
        key = stack.pop()
        if key in kids:
            out.append(key)
            key = kids[key][1]
        else:
            key = None
    return out


def reference_layout(rs):
    """(f, g, order) of the template: each template vertex q >= 3 ranked by
    its internal node's in-order position, f[q] and g[q] its nearest
    earlier-placed neighbours in that rank (base vertices 1 and 2 by
    default), found by bisect; order lists q by rank."""
    rank = {k: r for r, k in enumerate(reference_inorder(rs))}
    key_of_q = {3: rs.store.root.key}
    key_of_q.update((q, pk) for q, (pk, _, _) in rs.pairs.items() if q >= 4)
    f, g, present = {}, {}, []
    for q in range(3, len(rs.R) + 1):
        w = rank[key_of_q[q]]
        j = bisect_left(present, (w,))
        f[q] = present[j - 1][1] if j > 0 else 1
        g[q] = present[j][1] if j < len(present) else 2
        present.insert(j, (w, q))
    return f, g, tuple(q for _, q in present)


def reference_zmap(rs) -> dict:
    """Each node key mapped to the template edge of its representative: the
    root to (0, 1), the left and right nodes of template step q to
    (q-1, f[q]-1) and (q-1, g[q]-1), 0-based."""
    f, g, _ = reference_layout(rs)
    psi = {rs.store.root.key: (0, 1)}
    for q, (_, lk, rk) in rs.pairs.items():
        psi[lk] = (q - 1, f[q] - 1)
        psi[rk] = (q - 1, g[q] - 1)
    return {key: psi[r] for key, r in rs.rep.items()}


def reference_internal_counts(rs) -> tuple[int, int]:
    """(m, m'): internals left and right of the root in reference_inorder."""
    order = reference_inorder(rs)
    r = order.index(rs.store.root.key)
    return r, len(order) - 1 - r


def max_height(P) -> int:
    return max(P.heights.values())


def levels(prof) -> list[frozenset[int]]:
    """Vertices of a TauProfile grouped by depth, ascending."""
    by: dict[int, set[int]] = {}
    for v, d in prof.depth.items():
        by.setdefault(d, set()).add(v)
    return [frozenset(by[d]) for d in sorted(by)]


def grid_dimension_bounds(p: int, q: int, ell: int) -> tuple[int, int, int]:
    """(width, height, max lift height) bounds for grid instances: with
    n = p*q these are 4n^3, 8n^5 and (500 n^8)^(6 ell (p+q))."""
    n = p * q
    return 4 * n**3, 8 * n**5, (500 * n**8) ** (6 * ell * (p + q))


# -- an OFF verify whose certificates share nothing -----------------------------


def _parse_lift(text: str):
    """(lift, surface disk, shedding order) freshly parsed from an OFF lift,
    as cli._verify_off parses it; the disk is built here from the facets
    rather than read from LiftedPolyhedron.surface_disk, so the reference
    does not share that construction."""
    points, facets, comments = read_off(text)
    top = cli._off_comment(comments, "top")
    aorder = cli._off_comment(comments, "a")
    if top is None:
        disk = disk_from_facets(facets)
    else:
        match = [t for t in facets if rot_min_first(t) == rot_min_first(top)]
        if len(match) != 1:
            raise ParseError(f"'top' comment names a missing face {top}")
        top = match[0]
        disk = disk_from_facets([(t[2], t[1], t[0]) for t in facets if t != top])
    P = LiftedPolyhedron(
        heights={i: p.z for i, p in points.items()},
        points=points,
        facets=facets,
        m={},
        sequence=None,
        truncated=top,
    )
    return P, disk, aorder


def verify_off_unshared(text: str) -> list[Certificate]:
    """cli._verify_off's certificate list with nothing shared: every
    certificate reads its own freshly parsed lift and disk (so no cached
    verdict, plane or drawing test carries over), and lift_convex_globally
    builds the surface disk of a lift of its own."""
    P, disk, aorder = _parse_lift(text)
    certs = [
        Certificate(
            "parse", True, None,
            f"lift of a triangulated disk, n={disk.n}"
            + (", truncated" if P.truncated else ""),
        )
    ]
    certs.append(check_lift_convex(_parse_lift(text)[0]))
    certs.append(lift_convex_globally(_parse_lift(text)[0]))
    if aorder is not None:
        try:
            seq = sequence_from_order(_parse_lift(text)[1], aorder)
        except InvalidTriangulation as exc:
            certs.append(Certificate("shedding-order", False, aorder, str(exc)))
            return certs
        certs.append(
            Certificate("shedding-order", True, None, f"valid over {len(aorder)} vertices")
        )
        P2, disk2, _ = _parse_lift(text)
        xy = {i: (p.x, p.y) for i, p in P2.points.items()}
        certs.append(check_face_isomorphic(disk2, xy))
        certs.append(cli._prefix_convexity(xy, seq))
        certs.append(check_grid_bounds(replace(_parse_lift(text)[0], sequence=seq), disk.n))
    return certs


# -- the readers before the one-pass validator (references for fileio) ---------


def _reference_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _reference_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {tok!r}") from None


def read_triangulation_reference(text: str) -> TriangulationFile:
    """fileio.read_triangulation as it was before its t and v lines took
    the plain int fast path: every token through the error-naming parse, a
    set per triangle for the degeneracy test, and the disk checked by
    validate_reference."""
    lines = _reference_lines(text)
    if not lines or lines[0][0] != "triangulation":
        raise ParseError("first line must be a 'triangulation' header")
    header: dict[str, int] = {}
    for tok in lines[0][1:]:
        key, eq, val = tok.partition("=")
        if eq != "=" or key not in ("n", "p", "q", "l") or key in header:
            raise ParseError(f"bad header field {tok!r}")
        header[key] = _reference_int(val, f"header {key}")
    if "n" not in header:
        raise ParseError("header must declare n=<vertex count>")
    grid_keys = {"p", "q", "l"} & set(header)
    if grid_keys and grid_keys != {"p", "q", "l"}:
        raise ParseError("grid header needs all of p=, q=, l=")

    coords: dict[int, tuple[int, int]] = {}
    triangles: list[tuple[int, int, int]] = []
    boundary = order = None
    for toks in lines[1:]:
        tag, rest = toks[0], toks[1:]
        if tag == "v":
            if len(rest) != 3:
                raise ParseError(f"v line needs id x y, got {toks}")
            vid = _reference_int(rest[0], "vertex id")
            if vid in coords:
                raise ParseError(f"vertex {vid} has two coordinate lines")
            coords[vid] = (_reference_int(rest[1], "x"), _reference_int(rest[2], "y"))
        elif tag == "t":
            if len(rest) != 3:
                raise ParseError(f"t line needs three ids, got {toks}")
            a, b, c = (_reference_int(r, "triangle id") for r in rest)
            if len({a, b, c}) != 3:
                raise ParseError(f"degenerate triangle {a} {b} {c}")
            triangles.append((a, b, c))
        elif tag == "b":
            if boundary is not None:
                raise ParseError("more than one boundary line")
            boundary = tuple(_reference_int(r, "boundary id") for r in rest)
        elif tag == "a":
            if order is not None:
                raise ParseError("more than one shedding-order line")
            order = tuple(_reference_int(r, "order id") for r in rest)
        elif tag == "triangulation":
            raise ParseError("more than one header line")
        else:
            raise ParseError(f"unknown line tag {tag!r}")

    if not triangles:
        raise ParseError("no triangles")
    if boundary is None:
        raise ParseError("no boundary line")
    vertices = sorted({v for t in triangles for v in t})
    if len(vertices) != header["n"]:
        raise ParseError(
            f"header says n={header['n']} but triangles use {len(vertices)} vertices"
        )
    if coords and sorted(coords) != vertices:
        raise ParseError("coordinate lines must cover exactly the vertices used")
    if order is not None and sorted(order) != vertices:
        raise ParseError("shedding order is not a permutation of the vertices")
    grid = None
    if grid_keys:
        grid = (header["p"], header["q"], header["l"])
        if grid[0] * grid[1] != header["n"]:
            raise ParseError(f"grid header {grid[0]}x{grid[1]} does not match n={header['n']}")
    G = PlaneTriangulation(vertices, triangles, boundary, coords or None)
    bad = validate_reference(G)
    if bad:
        raise ParseError(f"not a triangulated disk: {bad[0].code}: {bad[0].detail}")
    return TriangulationFile(G, order, grid)


def edge_count_reference(facets) -> int:
    """Undirected edges of the faces, as a set of sorted pairs."""
    return len(
        {
            (u, v) if u < v else (v, u)
            for t in facets
            for u, v in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))
        }
    )


def read_off_reference(text: str):
    """fileio.read_off as it was before its edge count came from a face
    map: the count is a set of sorted vertex pairs."""
    comments = [s.lstrip("#").strip() for s in text.splitlines() if s.lstrip().startswith("#")]
    lines = _reference_lines(text)
    if not lines or lines[0] != ["OFF"]:
        raise ParseError("not an OFF document (missing OFF header line)")
    if len(lines) < 2 or len(lines[1]) != 3:
        raise ParseError("missing counts line")
    nv, nf, ne = (_reference_int(tok, "counts") for tok in lines[1])
    body = lines[2:]
    if len(body) != nv + nf:
        raise ParseError(f"expected {nv} vertex and {nf} face lines, got {len(body)}")
    points = {}
    for i, toks in enumerate(body[:nv]):
        if len(toks) != 3:
            raise ParseError(f"vertex line needs x y z, got {toks}")
        points[i] = Point3(*(_reference_int(tok, "coordinate") for tok in toks))
    facets = []
    for toks in body[nv:]:
        if len(toks) != 4 or toks[0] != "3":
            raise ParseError(f"face line must read '3 i j k', got {toks}")
        t = tuple(_reference_int(tok, "face index") for tok in toks[1:])
        a, b, c = t
        if a not in points or b not in points or c not in points or a == b or b == c or a == c:
            raise ParseError(f"face indices out of range: {t}")
        facets.append(t)
    if ne != 0 and ne != edge_count_reference(facets):
        raise ParseError(f"counts line says {ne} edges, faces give {edge_count_reference(facets)}")
    return points, tuple(facets), comments


def disk_from_facets_reference(facets) -> PlaneTriangulation:
    """fileio.disk_from_facets as it was before one face map did its work:
    the boundary from a set of directed edges, and validate_reference on a
    disk that builds its own face map."""
    directed = {(t[j], t[(j + 1) % 3]) for t in facets for j in range(3)}
    succ: dict[int, int] = {}
    for u, v in directed:
        if (v, u) not in directed:
            if u in succ:
                raise ParseError(f"vertex {u} has two outgoing boundary edges")
            succ[u] = v
    if not succ:
        raise ParseError("faces form a closed surface, not a disk")
    start = min(succ)
    cyc = [start]
    while True:
        nxt = succ.get(cyc[-1])
        if nxt is None:
            raise ParseError("boundary walk broke off")
        if nxt == start:
            break
        cyc.append(nxt)
        if len(cyc) > len(succ):
            raise ParseError("boundary edges form more than one cycle")
    if len(cyc) != len(succ):
        raise ParseError("boundary edges form more than one cycle")
    G = PlaneTriangulation(sorted({v for t in facets for v in t}), facets, cyc)
    bad = validate_reference(G)
    if bad:
        raise ParseError(f"faces do not form a triangulated disk: {bad[0].code}")
    return G
