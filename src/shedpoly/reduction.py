"""Shedding trees, their degree-2 reduction, and the convex template triangulation.

Every boundary edge that ever appears while deleting a shedding sequence
becomes a node of a growing binary tree: when step i attaches vertex a_i over
the chain w_1..w_k, the new boundary edge a_i w_1 hangs as the *left* child of
the node for w_1 w_2, and a_i w_k as the *right* child of the node for
w_{k-1} w_k.  Contracting every node created at a step of degree > 2 leaves a
full binary tree whose shape is realizable by a small convex triangulation on
a lattice parabola -- the template that the integer-grid embedding tracks.

reduce_trees lays the template out straight from the links, forward over the
steps: every node carries the ordered ends of its template edge, copied from
its parent at a contracted step and split at the new template vertex at a
degree-2 step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .triangulation import PlaneTriangulation, SheddingSequence, edge_key

EdgeKey = tuple[int, int]


class MalformedTreeSequence(Exception):
    """The contracted tree is left-heavy (m > m'): mirror the instance."""


class TreeStore:
    """The family T_2..T_n as one flat record; T_i is the set of nodes (undirected
    boundary edges) created at a step <= i.  by_key maps each node to its step
    (the root to 2); created[i] = (left node, its parent, right node, its
    parent) for i >= 3.

    add_pair only records: the peel engine deleted a shedding vertex at
    every step, and that makes every step's two nodes fresh and every child
    slot filled once.  At step i the nodes a_i w_1 and a_i w_k are edges at
    a_i, which is not in G_{i-1}, so neither is an earlier node; they are
    distinct because w_1 != w_k.  Their parents w_1 w_2 and w_{k-1} w_k are
    link edges of a_i, which turn interior at step i and stay interior in
    every later prefix, so no later step hangs a child under them again."""

    def __init__(self, root: EdgeKey, n: int):
        self.n = n
        self.root = root
        self.by_key: dict[EdgeKey, int] = {root: 2}
        self.created: dict[int, tuple[EdgeKey, EdgeKey, EdgeKey, EdgeKey]] = {}

    def add_pair(self, i: int, nu: EdgeKey, xi: EdgeKey, nup: EdgeKey, xip: EdgeKey):
        self.by_key[nu] = self.by_key[nup] = i
        self.created[i] = (nu, xi, nup, xip)


def build_shedding_trees(
    G: PlaneTriangulation,
    a: SheddingSequence,
    trace: Optional[SheddingSequence] = None,
) -> TreeStore:
    """The trees T_2..T_n of (G, a), as one shared store.

    T_i records the boundary-edge history of the prefix G_i; node identity is
    the undirected edge.  Left/right is combinatorial (from the boundary-cycle
    orientation), so no embedding is needed.  The links are read from trace,
    which must have been peeled from G; it defaults to a itself.  The link
    of a_3 in G_3 is trace.base_lr.
    """
    if trace is None:
        trace = a
    store = TreeStore(edge_key(*trace.order[:2]), trace.n)
    links = (trace.base_lr,) + trace.links
    for i, (ai, link) in enumerate(zip(trace.order[2:], links), start=3):
        store.add_pair(
            i,
            edge_key(ai, link[0]),
            edge_key(link[0], link[1]),
            edge_key(ai, link[-1]),
            edge_key(link[-2], link[-1]),
        )
    return store


@dataclass(frozen=True)
class ReducedStructure:
    """The contracted trees laid out as the template; read, never modify.

    rho[i] = q numbers the steps of degree <= 2 as template vertices; vertex
    q >= 3 is placed over the edge f[q] g[q].  order lists q = 3..len(rho) in
    the in-order of T*_n's internal nodes, q for the node that turns internal
    at step q (the root at 3).  zmap maps every node to its template edge,
    0-based, apex first (the root to (0, 1)).
    """

    store: TreeStore
    rho: dict[int, int]
    f: dict[int, int]
    g: dict[int, int]
    order: tuple[int, ...]
    zmap: dict[EdgeKey, tuple[int, int]]

    def internal_counts(self) -> tuple[int, int]:
        """(m, m'): internal nodes strictly left/right of the root in the final
        contracted tree's in-order traversal."""
        root_rank = self.order.index(3)
        return root_rank, len(self.order) - 1 - root_rank

    def mirrored(self) -> "ReducedStructure":
        """The reduction of a.mirrored(), read off this reduction of a.

        The mirrored sequence keeps the order and reverses every link,
        base_lr included, which exchanges (w_1, w_2) and (w_{k-1}, w_k): the
        same nodes hang under the same parents at the same steps, left and
        right exchanged, and rho (link sizes only) is shared.  By induction
        over reduce_trees' pass, a node that ends at (x, y) here ends at
        (y, x) there with 1 <-> 2 applied: f and g trade places, 1 <-> 2
        applied to both, and the in-order is reversed.  The left node
        (f[q], q) of step q is there the right node (q, f[q] mirrored), so
        every zmap value but the root's (0, 1) has 0 <-> 1 swapped in its
        second entry.  The hypothesis check reads the same facts.  The
        store is shared with its unswapped ``created``; past reduce_trees
        only its keys are read.
        """
        base = {1: 2, 2: 1}
        zmap = {k: (p, e if e > 1 else 1 - e) for k, (p, e) in self.zmap.items()}
        zmap[self.store.root] = (0, 1)
        return ReducedStructure(
            self.store,
            self.rho,
            {q: base.get(v, v) for q, v in self.g.items()},
            {q: base.get(v, v) for q, v in self.f.items()},
            self.order[::-1],
            zmap,
        )


def reduce_trees(store: TreeStore, a: SheddingSequence) -> ReducedStructure:
    """Contract every tree edge whose child node was created at a step of
    degree > 2, and lay the contracted tree out as the template.

    One pass forward over the steps carries every node's ordered template
    ends, the root's being (1, 2).  A step of degree > 2 is contracted into
    the parents: each new node copies its parent's ends.  A degree-2 step
    hangs both nodes under the one node w_1 w_2 and places the next
    template vertex q over its ends f[q], g[q]; the left node ends at
    (f[q], q), the right at (q, g[q]).  The leaves of the contracted tree
    own the consecutive pairs of its in-order, so inserting q between f[q]
    and g[q], in a successor map that starts 1 -> 2, lays out the in-order.

    No parent is internal already when a degree-2 step splits it.  Before
    step i, the boundary edges of G_{i-1} other than the base edge carry
    distinct ends (x, y), each with succ[x] = y, so no two share an x.  A
    contracted step hands the ends of the two departing edges w_1 w_2 and
    w_{k-1} w_k to the two new edges and drops the ends of the others; succ
    is unchanged.  A degree-2 step splits the only edge that carries
    (f[q], g[q]) into (f[q], q) and (q, g[q]), and only succ[f[q]] and the
    new succ[q] change.  Both steps keep the invariant, which step 3 sets
    up: it has degree 2 and splits the root, whose ends (1, 2) start succ.

    No size check is needed: add_pair records exactly two fresh nodes per
    step, so T*_i (the root and the nodes of the degree-2 steps 3..i) has
    1 + 2 (h(i) - 2) nodes, h(i) counting the steps <= i of degree <= 2.
    Each reduced parent takes both children at once and only once, so
    every T*_i is full.
    """
    root = store.root
    ends = {root: (1, 2)}
    zmap = {root: (0, 1)}
    succ = {1: 2}
    rho = {1: 1, 2: 2}
    f: dict[int, int] = {}
    g: dict[int, int] = {}
    for i in range(3, store.n + 1):
        left, lp, right, rp = store.created[i]
        if a.degrees[i - 1] > 2:
            ends[left], ends[right] = ends[lp], ends[rp]
            zmap[left], zmap[right] = zmap[lp], zmap[rp]
            continue
        q = rho[i] = len(rho) + 1
        fq, gq = f[q], g[q] = ends[lp]
        ends[left], ends[right] = (fq, q), (q, gq)
        zmap[left], zmap[right] = (q - 1, fq - 1), (q - 1, gq - 1)
        succ[fq], succ[q] = q, gq
    order = []
    q = succ[1]
    while q != 2:
        order.append(q)
        q = succ[q]
    return ReducedStructure(store, rho, f, g, tuple(order), zmap)


@dataclass(frozen=True)
class ReducedTriangulation:
    """The template G*: a convex triangulation on a lattice parabola whose
    shedding trees are exactly the contracted trees of the instance.

    Vertex id q-1 plays the role of the q-th template vertex, so 0, 1, ..., R-1
    is its (all-degree-2) shedding order.
    """

    Gstar: PlaneTriangulation
    m: int
    mprime: int

    @property
    def size(self) -> int:
        return self.Gstar.n


def build_reduced_triangulation(rs: ReducedStructure) -> ReducedTriangulation:
    """Realize the final contracted tree as a convex lattice triangulation.

    Internal nodes, taken in in-order, get consecutive x positions with the
    root pinned at x=0 (m internals to its left, m' to its right, m <= m'
    required); every vertex sits on the concave lattice arc
    y = C(m'+2, 2) - C(|x|+1, 2), so all boundary slopes strictly decrease.
    Raises MalformedTreeSequence when m > m' -- callers mirror the instance
    and rebuild rather than juggling swapped labels.
    """
    Rn = len(rs.rho)
    m, mprime = rs.internal_counts()
    if m > mprime:
        raise MalformedTreeSequence(f"left-heavy tree (m={m} > m'={mprime}); mirror the instance")

    x = {1: -(mprime + 1), 2: mprime + 1}
    x.update((q, r - m) for r, q in enumerate(rs.order))
    ytop = comb(mprime + 2, 2)
    coords = {q - 1: (x[q], ytop - comb(abs(x[q]) + 1, 2)) for q in range(1, Rn + 1)}
    tris = [(rs.f[q] - 1, rs.g[q] - 1, q - 1) for q in range(3, Rn + 1)]
    boundary = (0, 1) + tuple(q - 1 for q in reversed(rs.order))
    Gstar = PlaneTriangulation(range(Rn), tris, boundary, coords)
    return ReducedTriangulation(Gstar, m, mprime)
