"""Combinatorial plane triangulations (triangulated disks) and shedding machinery.

A triangulation here is a pure combinatorial object: a set of vertex ids, a set
of counterclockwise-oriented triangles, and an explicit counterclockwise
boundary cycle.  Optional integer lattice coordinates ride along for instances
that have them (grid triangulations); nothing in this module does geometry with
them beyond lexicographic tie-breaking.

Vertex ids are arbitrary distinct non-negative ints.  Freshly generated or
file-loaded instances use dense ids 0..n-1, but deleting a boundary vertex
(the basic move of a shedding sequence) produces a sub-triangulation that keeps
the surviving ids, so the data model must allow gaps.

A SheddingSequence is its own deletion history: besides the order it holds
the disk and the link of every deleted vertex; the boundary cycle of a
prefix is derived from these on demand.  All sequences come out of one
mutable peel engine (PeelEngine), which edits a rotation system in place,
keeps every vertex's shedding status by a count, and so deletes in O(deg);
the downstream constructions read the history instead of deleting again.
The engine also answers questions about the current prefix in place, such
as the two sides of a chord that the grid schedule carves along.
PlaneTriangulation stays the immutable value that I/O and the certificates
use, and validate() is the definition the engine's shedding test must agree
with.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence


class InvalidTriangulation(Exception):
    """Operation applied to an object that is not a valid plane triangulation."""


class NoSheddingVertex(InvalidTriangulation):
    """No shedding vertex found where theory guarantees one; signals a bug."""


class Violation(NamedTuple):
    code: str
    detail: str


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def rot_min_first(t: Sequence[int]) -> tuple[int, ...]:
    """The cyclic rotation of t that starts at its smallest entry."""
    j = t.index(min(t))
    return tuple(t[j:]) + tuple(t[:j])


class PlaneTriangulation:
    """Immutable triangulated disk.

    triangles: ccw vertex triples.
    boundary:  simple cycle of boundary vertex ids, ccw (interior on the left).
    coords:    optional map id -> (x, y) integer lattice point.

    Derived adjacency structures are built lazily and cached; treat instances
    as frozen values: deletions happen on a PeelEngine copy of the maps, and
    PeelEngine.snapshot builds a new instance.  validate()'s verdict is
    cached the same way (``_verdict``).
    """

    __slots__ = (
        "vertices",
        "triangles",
        "boundary",
        "coords",
        "_third",
        "_adj",
        "_bsucc",
        "_bpred",
        "_verdict",
        "_drawn",  # belongs to verify, which alone reads and writes it
    )

    def __init__(
        self,
        vertices: Iterable[int],
        triangles: Iterable[Sequence[int]],
        boundary: Sequence[int],
        coords: Optional[Mapping[int, tuple[int, int]]] = None,
    ):
        self.vertices: tuple[int, ...] = tuple(sorted(vertices))
        self.triangles: tuple[tuple[int, int, int], ...] = tuple(
            (t[0], t[1], t[2]) for t in triangles
        )
        self.boundary: tuple[int, ...] = tuple(boundary)
        self.coords: Optional[dict[int, tuple[int, int]]] = (
            dict(coords) if coords is not None else None
        )
        self._third = None
        self._adj = None
        self._bsucc = None
        self._bpred = None
        self._verdict = None
        self._drawn = None

    # -- basic accessors -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def _key(self):
        c = tuple(sorted(self.coords.items())) if self.coords is not None else None
        return (self.vertices, self.triangles, self.boundary, c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneTriangulation):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"PlaneTriangulation(n={self.n}, b={len(self.boundary)}, t={len(self.triangles)})"

    def third(self) -> dict[tuple[int, int], int]:
        """Directed edge (u,v) -> the third vertex of the ccw triangle containing it."""
        if self._third is None:
            m: dict[tuple[int, int], int] = {}
            for a, b, c in self.triangles:
                m[(a, b)] = c
                m[(b, c)] = a
                m[(c, a)] = b
            self._third = m
        return self._third

    def adjacency(self) -> dict[int, set[int]]:
        if self._adj is None:
            adj: dict[int, set[int]] = {v: set() for v in self.vertices}
            for a, b, c in self.triangles:
                adj[a].update((b, c))
                adj[b].update((a, c))
                adj[c].update((a, b))
            self._adj = adj
        return self._adj

    def boundary_succ(self) -> dict[int, int]:
        if self._bsucc is None:
            cyc = self.boundary
            self._bsucc = {cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))}
        return self._bsucc

    def boundary_pred(self) -> dict[int, int]:
        if self._bpred is None:
            self._bpred = {s: p for p, s in self.boundary_succ().items()}
        return self._bpred

    def boundary_edges(self) -> set[tuple[int, int]]:
        cyc = self.boundary
        return {edge_key(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}


# -- validation ---------------------------------------------------------------


def validate(G: PlaneTriangulation) -> list[Violation]:
    """Check all triangulated-disk invariants; empty list means valid.

    The checks, in order: well-formed triangles over the vertex set, no
    duplicated faces, consistent orientations (each directed edge in at most
    one triangle), a simple boundary cycle matching triangle orientations,
    the Euler counts #t = 2n - b - 2 and #e = 3n - b - 3, a single fan/cycle
    of faces around every vertex, and connectivity.  Together these certify
    that the complex is a triangulated disk with the declared boundary.

    The checks read G's own cached maps, G.third(), G.boundary_succ(),
    G.boundary_pred() and G.adjacency(), and build no map of their own, so
    a peel of G that follows copies the face map validate already built.
    The face map is built only once the faces are known to be well formed
    and distinct.

    The verdict is a pure function of the frozen value G, so the checks run
    once per instance (_validate) and every call returns a fresh list equal
    to the first one.
    """
    if G._verdict is None:
        G._verdict = tuple(_validate(G))
    return list(G._verdict)


def _validate(G: PlaneTriangulation) -> list[Violation]:
    """validate()'s checks, uncached."""
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

    third = G.third()
    if len(third) < 3 * len(G.triangles):
        # a directed edge of two triangles; name the first one met
        met: set[tuple[int, int]] = set()
        for a, b, c in G.triangles:
            for e in ((a, b), (b, c), (c, a)):
                if e in met:
                    out.append(Violation("orientation", f"directed edge {e} in two triangles"))
                    return out
                met.add(e)

    cyc = G.boundary
    b = len(cyc)
    if b < 3 or len(set(cyc)) != b or not set(cyc) <= verts:
        out.append(Violation("bad-boundary", f"boundary cycle {cyc} not simple"))
        return out
    bsucc, bpred = G.boundary_succ(), G.boundary_pred()
    for u, v in bsucc.items():
        if (u, v) not in third:
            out.append(
                Violation("bad-boundary", f"boundary step {u}->{v} not a ccw triangle edge")
            )
            return out
        if (v, u) in third:
            out.append(
                Violation("bad-boundary", f"boundary edge {u}-{v} has triangles on both sides")
            )
            return out

    # edge census: every boundary edge now borders exactly one triangle, so
    # an edge in one triangle that is not a boundary step is an open edge
    for u, v in third:
        if (v, u) not in third and bsucc.get(u) != v:
            out.append(Violation("open-edge", f"interior edge {edge_key(u, v)} in 1 triangle(s)"))
            return out

    # with every interior edge in two triangles, #e = (3 #t + b) / 2, so
    # #t = 2n - b - 2 gives #e = 3n - b - 3
    if len(G.triangles) != 2 * n - b - 2:
        out.append(
            Violation(
                "euler", f"#triangles={len(G.triangles)} != 2n-b-2={2 * n - b - 2}"
            )
        )
        return out

    # single fan (boundary vertex) / single cycle (interior vertex) of faces:
    # around v, the face on (v, w) turns w into third[(v, w)]
    adj = G.adjacency()
    for v in G.vertices:
        nbrs = adj[v]
        if not nbrs:
            out.append(Violation("disconnected", f"isolated vertex {v}"))
            return out
        if v in bsucc:
            start, stop = bsucc[v], bpred[v]
            seen = {start}
            w = start
            while w != stop:
                w = third.get((v, w), -1)
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
            w = third.get((v, start), -1)
            while w >= 0 and w != start:
                if w in seen:
                    break
                seen.add(w)
                w = third.get((v, w), -1)
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


# -- shedding sequences and the peel engine -------------------------------------


@dataclass(frozen=True)
class SheddingSequence:
    """A shedding sequence a_1..a_n of G together with its deletion history.

    Deleting a_n, a_{n-1}, ..., a_4 peels G down to the triangle a_1 a_2 a_3
    through the prefix triangulations G_i on {a_1..a_i}.  ``links[i - 4]`` is
    the ordered link of a_i in G_i (see PeelEngine.link).  The per-step
    degrees d_i(a_i) are read off the links, and the ccw boundary cycle of
    G_i is derived from them by ``boundary(i)``.

    Invariants: (a_1, a_2) is a boundary edge of G, and for every i >= 4 the
    vertex a_i is a shedding vertex of G_i.  Every sequence is built by
    PeelEngine, which checks the second before every deletion; its callers
    check the first.

    The sequence is the one owner of the facts derived from this history:
    ``base_lr`` (which base vertex is left), ``degrees``, ``heads`` and the
    prefix cycles.  The constructions that take a sequence together with a
    disk (reduction.build_shedding_trees, embedding.grid_embed,
    lifting.lift) read it as given, so it must have been peeled from their
    disk; deletion_trace peels a foreign sequence again.
    """

    G: PlaneTriangulation
    order: tuple[int, ...]
    links: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """d_i(a_i) for i = 1..n: 0, 1, 2, then the link sizes."""
        return (0, 1, 2) + tuple(len(link) for link in self.links)

    @cached_property
    def heads(self) -> tuple[int, ...]:
        """``heads[i - 3]`` is the first entry of G_i's boundary cycle.

        Each cycle is rotated the way a copy-on-delete peel leaves it: G's
        boundary, with each deleted a_i replaced in place by the inner run
        w_{k-1}..w_2 of its link.  So the head of G_n is G.boundary[0], and
        deleting a_i moves the head only when a_i is the head, to w_{k-1} =
        link[-2].  (When k = 2 the run is empty, and the head moves to
        w_1 = succ(a_i), which is link[-2] too.)"""
        head = self.G.boundary[0]
        heads = [head]
        for v, link in zip(reversed(self.order[3:]), reversed(self.links)):
            if head == v:
                head = link[-2]
            heads.append(head)
        return tuple(reversed(heads))

    @cached_property
    def base_lr(self) -> tuple[int, int]:
        """(lb, rb): a_1 and a_2 in the order in which G_3's ccw cycle
        lb, rb, a_3 runs.  G_3 is the face a_1 a_2 a_3 of G, so the order is
        read off G.third().  The drawing puts lb left and rb right, and
        (lb, rb) is the link of a_3 in G_3."""
        a1, a2, a3 = self.order[:3]
        return (a1, a2) if self.G.third().get((a1, a2)) == a3 else (a2, a1)

    def link(self, i: int) -> tuple[int, ...]:
        return self.links[i - 4]

    def boundary(self, i: int) -> tuple[int, ...]:
        """The ccw boundary cycle of G_i, starting at ``heads[i - 3]``.

        G_3 is the cycle lb, rb, a_3 (base_lr); G_k comes from G_{k-1} by
        putting a_k between the ends w_k and w_1 of its link, as pred and
        succ.  The splice walk costs O(i + sum of link sizes); boundary(3)
        splices no link."""
        lb, rb = self.base_lr
        a3 = self.order[2]
        succ = {lb: rb, rb: a3, a3: lb}
        for v, link in zip(self.order[3:i], self.links):
            succ[link[-1]] = v
            succ[v] = link[0]
        return _cycle_from(succ, self.heads[i - 3])

    def mirrored(self) -> "SheddingSequence":
        """The same order over mirror(G).  Reflection reverses every link,
        and nothing else changes.

        mirror(G) reverses every face, so G_3's face a_1 a_2 a_3 runs the
        other way and the mirror's base_lr is this one reversed; it is
        handed over, so the mirror's face map is never built for it."""
        out = SheddingSequence(
            mirror(self.G), self.order, tuple(link[::-1] for link in self.links)
        )
        out.__dict__["base_lr"] = self.base_lr[::-1]
        return out


def _cycle_from(succ: Mapping[int, int], start: int) -> tuple[int, ...]:
    """The cycle of the successor map through start, read from start."""
    cyc = [start]
    w = succ[start]
    while w != start:
        cyc.append(w)
        w = succ[w]
    return tuple(cyc)


class PeelEngine:
    """The one deletion loop behind every SheddingSequence, on a mutable disk.

    The engine holds the current prefix G_i and edits it in place:

    * ``third[(x, w)]`` is the third vertex of the ccw face on the directed
      edge (x, w), as PlaneTriangulation.third();
    * ``succ`` / ``pred`` are the ccw boundary cycle as a doubly linked list,
      the only record of the boundary;
    * ``nbrs[x]`` is the neighbour set of x, and ``bn[x]`` the number of
      boundary vertices among those neighbours.

    Deleting the boundary vertex v walks its link w_1..w_k (w_1 = succ(v),
    w_k = pred(v), consecutive w_j, w_{j+1} span a face with v), drops its
    k - 1 faces and splices w_{k-1}..w_2 into the boundary in place of v.
    That is O(deg v) plus O(deg u) for every vertex u that joins the
    boundary; a vertex joins at most once, so a whole peel costs O(n).

    Shedding test.  With n > 3, a boundary vertex x is a shedding vertex
    (G_i - x is again a triangulated disk) iff no middle vertex w_2..w_{k-1}
    of its link is on the boundary.  The neighbours of x are exactly its
    link, and w_1, w_k are on the boundary, so the test is bn[x] == 2.

    Which statuses a deletion can change.  The status of x is a function of
    whether x is on the boundary and of bn[x].  Deleting v takes v off the
    boundary, removes the edges v w_j, and puts w_2..w_{k-1} on the
    boundary; v is a shedding vertex, so those were interior before.  No
    other vertex enters or leaves the boundary and no other edge changes.
    So bn[x] moves only when x is adjacent to v, that is x is in the link,
    or x is adjacent to one of w_2..w_{k-1}; and boundary membership moves
    only for v and for w_2..w_{k-1}, which are in the link.  Hence only the
    link of v and the neighbours of the vertices newly on the boundary can
    change status, and ``delete`` updates bn for exactly those.  Outside
    the link, bn[x] can only grow, so those vertices can lose the shedding
    status but not gain it: only the link can gain it.

    ``delete`` is the one way to delete.  It first checks that the vertex
    is a shedding vertex of the current prefix G_i (else it raises
    InvalidTriangulation naming a_i), then appends the vertex and its link
    to ``removed`` and ``links``, which ``sequence`` turns into a
    SheddingSequence.  A chooser that depends on the current prefix reads
    the engine and calls ``delete`` itself (``peel_smallest``, or the
    grid schedule's batches).  ``chord_sides`` splits the current prefix
    along a chord, and ``snapshot`` builds the current prefix as an
    immutable PlaneTriangulation.
    """

    def __init__(self, G: PlaneTriangulation):
        self.G = G
        self.third: dict[tuple[int, int], int] = dict(G.third())
        self.nbrs: dict[int, set[int]] = {x: set(ws) for x, ws in G.adjacency().items()}
        self.succ: dict[int, int] = dict(G.boundary_succ())
        self.pred: dict[int, int] = dict(G.boundary_pred())
        self.bn: dict[int, int] = {
            x: sum(w in self.succ for w in ws) for x, ws in self.nbrs.items()
        }
        self.removed: list[int] = []
        self.links: list[tuple[int, ...]] = []

    @property
    def n(self) -> int:
        return len(self.nbrs)

    @property
    def vertices(self):
        """The live vertices, as a set-like view."""
        return self.nbrs.keys()

    def on_boundary(self, x: int) -> bool:
        return x in self.succ

    def is_shedding(self, x: int) -> bool:
        """True iff x is a shedding vertex of the current prefix."""
        return len(self.nbrs) > 3 and x in self.succ and self.bn[x] == 2

    def link(self, v: int) -> tuple[int, ...]:
        """The link w_1..w_k of boundary vertex v, left (succ) to right (pred)."""
        third = self.third
        w, stop = self.succ[v], self.pred[v]
        link = [w]
        while w != stop:
            w = third[(v, w)]
            link.append(w)
        return tuple(link)

    def chord_sides(
        self, v: int, u: int, ok: Callable[[int], bool]
    ) -> tuple[Optional[set[int]], Optional[set[int]]]:
        """The vertices strictly on either side of the chord v u, an interior
        edge with both ends on the boundary: first the side that holds
        succ(v), then the side that holds pred(v).

        Each side is a flood over ``nbrs`` from succ(v), resp. pred(v), that
        never enters v or u.  The boundary runs v, succ(v), ..., u, ...,
        pred(v), so the two starts lie on different arcs between the chord's
        ends.  No flood leaks: an edge joining the two sides would cross the
        chord.  No flood falls short either.  A vertex of a side that its
        flood missed would lie in a part K of G - {v, u} that holds no
        boundary vertex, since the boundary arc of the side is a path.  So
        the faces that meet K cover a disk with K inside, and the rim of
        that disk is a cycle through neighbours of K.  But every neighbour
        of K is v or u, and two vertices make no cycle.  That is, in a
        triangulated disk a 2-vertex cut is always the pair of ends of a
        chord, so each side stays connected once the chord's ends are
        removed.

        A side is wanted only when every one of its vertices passes the
        predicate ``ok``: each flood stops at the first vertex that fails
        ``ok`` and that side comes back as None.  A side is not None exactly
        when all its vertices pass, and then it is the full side, so a
        caller that keeps the sides passing ``ok`` everywhere reaches the
        same verdict as one that tests each full side; the flood just does
        not walk the rest of a side it has already ruled out.  An ``ok``
        that always holds returns both full sides.
        """
        nbrs = self.nbrs
        sides: list[Optional[set[int]]] = []
        for start in (self.succ[v], self.pred[v]):
            side: Optional[set[int]] = {start}
            stack = [start]
            if not ok(start):
                side, stack = None, []
            while stack:
                for w in nbrs[stack.pop()]:
                    if w not in side and w != v and w != u:
                        if not ok(w):
                            side, stack = None, []
                            break
                        side.add(w)
                        stack.append(w)
            sides.append(side)
        return sides[0], sides[1]

    def delete(self, v: int) -> tuple[int, ...]:
        """Delete the shedding vertex v, record it, and return its link: the
        only vertices that can have become shedding vertices."""
        if not self.is_shedding(v):
            raise InvalidTriangulation(
                f"a_{len(self.nbrs)} = {v} is not a shedding vertex of its prefix"
            )
        third, succ, pred, nbrs, bn = self.third, self.succ, self.pred, self.nbrs, self.bn
        link = self.link(v)
        for a, b in zip(link, link[1:]):
            del third[(v, a)], third[(a, b)], third[(b, v)]
        rev = link[::-1]  # the new boundary run pred(v) = w_k .. w_1 = succ(v)
        for a, b in zip(rev, rev[1:]):
            succ[a] = b
            pred[b] = a
        del succ[v], pred[v], nbrs[v], bn[v]
        for w in link:
            nbrs[w].discard(v)
            bn[w] -= 1
        for u in rev[1:-1]:
            for x in nbrs[u]:
                bn[x] += 1
        self.removed.append(v)
        self.links.append(link)
        return link

    def peel_smallest(self, key: Callable[[int], object], keep: Iterable[int] = ()) -> bool:
        """Delete the shedding vertex outside ``keep`` with the smallest key,
        again and again, until three vertices remain.  Returns False if no
        such vertex exists before that.

        A lazy min-heap holds every shedding vertex, and also stale entries
        for vertices that lost the status, which are dropped when they
        surface.  After a deletion only the link can have gained the status,
        so only the link is re-tested, and the choice is the one a full scan
        of the boundary would make.
        """
        keep = set(keep)
        heap = [(key(x), x) for x in self.succ if x not in keep and self.is_shedding(x)]
        heapify(heap)
        while len(self.nbrs) > 3:
            while heap and not self.is_shedding(heap[0][1]):
                heappop(heap)
            if not heap:
                return False
            for x in self.delete(heappop(heap)[1]):
                if x not in keep and self.is_shedding(x):
                    heappush(heap, (key(x), x))
        return True

    def snapshot(self) -> PlaneTriangulation:
        """The current prefix as an immutable PlaneTriangulation (no coords)."""
        tris = [(a, b, c) for (a, b), c in self.third.items() if a < b and a < c]
        cyc = _cycle_from(self.succ, next(iter(self.succ)))
        return PlaneTriangulation(self.nbrs, tris, cyc)

    def copy(self) -> "PeelEngine":
        """An independent engine at the same prefix, over the same G."""
        return deepcopy(self, {id(self.G): self.G})

    def sequence(self, base: Sequence[int]) -> SheddingSequence:
        """The finished sequence with a_1, a_2, a_3 = base, the vertices of
        the remaining triangle."""
        if set(base) != self.nbrs.keys() or validate(self.snapshot()):
            raise InvalidTriangulation("prefix G_3 is not a triangle")
        return SheddingSequence(
            self.G,
            tuple(base) + tuple(reversed(self.removed)),
            tuple(reversed(self.links)),
        )


def peel_order(G: PlaneTriangulation, order: Sequence[int]) -> SheddingSequence:
    """Peel G along a fixed order: delete a_n first, a_4 last.

    Raises InvalidTriangulation unless the order is a permutation of G's
    vertices whose base edge (a_1, a_2) lies on G's boundary and whose every
    a_i, i >= 4, is a shedding vertex of the prefix G_i.
    """
    order = tuple(order)
    if sorted(order) != list(G.vertices):
        raise InvalidTriangulation("order is not a permutation of the vertices")
    if edge_key(order[0], order[1]) not in G.boundary_edges():
        raise InvalidTriangulation(
            f"({order[0]},{order[1]}) is not a boundary edge of the triangulation"
        )
    peel = PeelEngine(G)
    for v in reversed(order[3:]):
        peel.delete(v)
    return peel.sequence(order[:3])


def shedding_sequence(G: PlaneTriangulation, u: int, v: int) -> SheddingSequence:
    """Greedy shedding sequence with a_1 = u, a_2 = v.

    Works backward from i = n: among boundary vertices of the current prefix
    other than u and v, deletes the smallest-id shedding vertex.  Existence is
    guaranteed for every valid input; NoSheddingVertex firing means the input
    was invalid or there is a bug.
    """
    if edge_key(u, v) not in G.boundary_edges():
        raise InvalidTriangulation(f"({u},{v}) is not a boundary edge")
    peel = PeelEngine(G)
    if not peel.peel_smallest(int, (u, v)):
        raise NoSheddingVertex(f"no shedding vertex at n={peel.n}")
    (w3,) = [w for w in peel.vertices if w != u and w != v]
    return peel.sequence((u, v, w3))


def deletion_trace(G: PlaneTriangulation, a: SheddingSequence) -> SheddingSequence:
    """Re-check a against G: peel G along a.order, verifying that every
    deleted vertex is a shedding vertex of its prefix.  Returns the sequence
    over G (a may come from another disk with the same vertex ids)."""
    return peel_order(G, a.order)


def mirror(G: PlaneTriangulation) -> PlaneTriangulation:
    """The reflected triangulation: all orientations reversed.

    Coordinates are dropped -- the mirror is a working copy for the embedding
    pipeline (which never reads input coordinates), not a lattice instance.
    """
    tris = tuple((a, c, b) for a, b, c in G.triangles)
    return PlaneTriangulation(G.vertices, tris, tuple(reversed(G.boundary)), None)
