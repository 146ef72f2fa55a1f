"""Shedding trees, their degree-2 reduction, and the convex template triangulation.

Every boundary edge that ever appears while deleting a shedding sequence
becomes a node of a growing binary tree: when step i attaches vertex a_i over
the chain w_1..w_k, the new boundary edge a_i w_1 hangs as the *left* child of
the node for w_1 w_2, and a_i w_k as the *right* child of the node for
w_{k-1} w_k.  Contracting every node created at a step of degree > 2 leaves a
full binary tree whose shape is realizable by a small convex triangulation on
a lattice parabola -- the template that the integer-grid embedding tracks.

Both run forward over the steps the store records, as the paper's process
does: each node's representative is its own or its parent's, and each
template vertex takes the ends of the edge it is placed over from its parent
and is inserted between them in the in-order (ReducedStructure.layout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Optional

from .triangulation import PlaneTriangulation, SheddingSequence, edge_key

EdgeKey = tuple[int, int]


class MalformedTreeSequence(Exception):
    """Tree-sequence hypotheses (node counts, fullness, balance) violated."""


class TreeNode:
    __slots__ = ("key", "step", "parent", "left", "right")

    def __init__(self, key: EdgeKey, step: int, parent: Optional["TreeNode"]):
        self.key = key
        self.step = step
        self.parent = parent
        self.left: Optional[TreeNode] = None
        self.right: Optional[TreeNode] = None

    def __repr__(self) -> str:
        return f"TreeNode({self.key}, step={self.step})"


class TreeStore:
    """Shared node store for the whole family T_2..T_n: the tree T_i is the
    set of nodes created at a step <= i."""

    def __init__(self, root_key: EdgeKey, n: int):
        self.n = n
        self.root = TreeNode(root_key, 2, None)
        self.by_key: dict[EdgeKey, TreeNode] = {root_key: self.root}
        # created[i] = (left-attached node, right-attached node) for step i >= 3
        self.created: dict[int, tuple[TreeNode, TreeNode]] = {}

    def add_pair(self, i: int, nu_key: EdgeKey, xi_key: EdgeKey, nup_key: EdgeKey, xip_key: EdgeKey):
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
        w1, w2 = link[0], link[1]
        wk1, wk = link[-2], link[-1]
        store.add_pair(
            i,
            edge_key(ai, w1),
            edge_key(w1, w2),
            edge_key(ai, wk),
            edge_key(wk1, wk),
        )
    return store


@dataclass(frozen=True)
class ReducedStructure:
    """Index set R, rank maps, and the edge contraction of the tree family."""

    store: TreeStore
    R: tuple[int, ...]
    rho: dict[int, int]
    h: tuple[int, ...]  # h[i-1] = #{r in R : r <= i}
    rep: dict[EdgeKey, EdgeKey]
    # pairs[q] = (reduced-parent key, left node key, right node key) for q >= 3,
    # where q = rho(original step)
    pairs: dict[int, tuple[EdgeKey, EdgeKey, EdgeKey]]

    @property
    def n(self) -> int:
        return self.store.n

    def internal_counts(self) -> tuple[int, int]:
        """(m, m'): internal nodes strictly left/right of the root in the final
        contracted tree's in-order traversal."""
        order = self.layout[2]
        root_rank = order.index(3)
        return root_rank, len(order) - 1 - root_rank

    def mirrored(self) -> "ReducedStructure":
        """The reduction of a.mirrored(), read off this reduction of a.

        The mirrored sequence keeps the order and reverses every link, the
        base link base_lr included.  Reversing w_1..w_k exchanges the roles
        of (w_1, w_2) and (w_{k-1}, w_k), so build_shedding_trees hangs the
        same undirected key a_i w_k under the same parent w_{k-1} w_k, now
        as a left child, and a_i w_1 under w_1 w_2 as a right child: the
        same nodes, steps and parents, with left and right exchanged.  R,
        rho and h depend only on the step degrees, which are link sizes;
        rep depends only on steps and parents.  So they are shared, and
        each pairs[q] = (p, l, r) becomes (p, r, l).

        The layout is handed over with its sides exchanged, not laid out
        again.  An edge that ends at (x, y) here ends at (y, x) there, with
        the base vertices 1 and 2 exchanged: f and g trade places, 1 <-> 2
        applied to both, and the in-order is this one reversed.  Every
        hypothesis check of reduce_trees reads the same facts, so it holds
        for the mirror exactly when it held here.

        The store is shared and keeps its unswapped child links and
        ``created`` pairs.  Nothing downstream reads them: past
        reduce_trees, the library reads only store.n, store.root.key and
        the keys of store.by_key, which the mirror leaves as they are.
        """
        pairs = {q: (p, r, l) for q, (p, l, r) in self.pairs.items()}
        out = ReducedStructure(self.store, self.R, self.rho, self.h, self.rep, pairs)
        f, g, order = self.layout
        base = {1: 2, 2: 1}
        out.__dict__["layout"] = (
            {q: base.get(v, v) for q, v in g.items()},
            {q: base.get(v, v) for q, v in f.items()},
            order[::-1],
        )
        return out

    @cached_property
    def layout(self) -> tuple[dict[int, int], dict[int, int], tuple[int, ...]]:
        """(f, g, order): template vertex q >= 3 is placed over the edge
        f[q] g[q], and order lists q = 3..|R| in the in-order of the
        internal nodes of T*_n, q standing for the node that turns internal
        at template step q (the root at q = 3).

        Laid out forward, once per instance; read, never modify.  The
        root's edge ends at the base vertices (1, 2).  The node that turns
        internal at step q gives its ends to f[q], g[q]; its left child then
        ends at (f[q], q) and its right child at (q, g[q]).  The ends of a
        leaf are its nearest internals to the left and right in the
        in-order so far, since a node's own subtree is created later.  So
        inserting q between f[q] and g[q], in a successor map that starts
        1 -> 2, lays out the final in-order.
        """
        ends = {self.store.root.key: (1, 2)}
        succ = {1: 2}
        f: dict[int, int] = {}
        g: dict[int, int] = {}
        for q in range(3, len(self.R) + 1):
            pk, lk, rk = self.pairs[q]
            fq, gq = f[q], g[q] = ends[pk]
            ends[lk], ends[rk] = (fq, q), (q, gq)
            succ[fq], succ[q] = q, gq
        order = []
        q = succ[1]
        while q != 2:
            order.append(q)
            q = succ[q]
        return f, g, tuple(order)


def reduce_trees(store: TreeStore, a: SheddingSequence) -> ReducedStructure:
    """Contract every tree edge whose child node was created at a step of
    degree > 2.  Returns the bookkeeping the template construction needs.

    Representatives run forward over the steps: a node created at a
    reduced step is its own, any other node takes its parent's, and the
    parent was created earlier.  A reduced step has a two-vertex link, so
    both of its new nodes hang under the one node of edge w_1 w_2."""
    n = store.n
    R = [1, 2, 3] + [i for i in range(4, n + 1) if a.degrees[i - 1] == 2]
    rset = set(R)
    rho = {i: q + 1 for q, i in enumerate(R)}
    h = []
    cnt = 0
    for i in range(1, n + 1):
        if i in rset:
            cnt += 1
        h.append(cnt)

    root = store.root.key
    rep: dict[EdgeKey, EdgeKey] = {root: root}
    pairs: dict[int, tuple[EdgeKey, EdgeKey, EdgeKey]] = {}
    seen_parents: set[EdgeKey] = set()
    for i in range(3, n + 1):
        nu, nup = store.created[i]
        if i not in rset:
            rep[nu.key] = rep[nu.parent.key]
            rep[nup.key] = rep[nup.parent.key]
            continue
        rep[nu.key], rep[nup.key] = nu.key, nup.key
        pk = rep[nu.parent.key]
        if pk in seen_parents:
            raise MalformedTreeSequence(f"step {i}: parent {pk} already internal")
        seen_parents.add(pk)
        pairs[rho[i]] = (pk, nu.key, nup.key)

    rs = ReducedStructure(store, tuple(R), rho, tuple(h), rep, pairs)

    # hypothesis checks: every contracted tree is the right size and full;
    # got runs through the node count of T*_i for i = 2..n
    born = [0] * (n + 1)
    for nd in store.by_key.values():
        if nd.step in rset:
            born[nd.step] += 1
    got = 0
    for i in range(2, n + 1):
        got += born[i]
        expect = 1 + 2 * (h[i - 1] - 2) if i >= 3 else 1
        if got != expect:
            raise MalformedTreeSequence(f"T*_{i} has {got} nodes, expected {expect}")
    return rs


@dataclass(frozen=True)
class ReducedTriangulation:
    """The template G*: a convex triangulation on a lattice parabola whose
    shedding trees are exactly the contracted trees of the instance.

    Vertex id q-1 plays the role of the q-th template vertex, so 0, 1, ..., R-1
    is its (all-degree-2) shedding order.  psi maps every surviving tree node
    to the template edge it stands for.
    """

    Gstar: PlaneTriangulation
    m: int
    mprime: int
    f: dict[int, int]
    g: dict[int, int]
    psi: dict[EdgeKey, tuple[int, int]]
    rs: ReducedStructure = field(repr=False)

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
    Rn = len(rs.R)
    m, mprime = rs.internal_counts()
    if m > mprime:
        raise MalformedTreeSequence(f"left-heavy tree (m={m} > m'={mprime}); mirror the instance")

    f, g, order = rs.layout
    x = {1: -(mprime + 1), 2: mprime + 1}
    x.update((q, r - m) for r, q in enumerate(order))
    ytop = comb(mprime + 2, 2)
    coords = {q - 1: (x[q], ytop - comb(abs(x[q]) + 1, 2)) for q in range(1, Rn + 1)}
    tris = [(f[q] - 1, g[q] - 1, q - 1) for q in range(3, Rn + 1)]
    boundary = (0, 1) + tuple(q - 1 for q in reversed(order))
    Gstar = PlaneTriangulation(range(Rn), tris, boundary, coords)

    psi: dict[EdgeKey, tuple[int, int]] = {rs.store.root.key: (0, 1)}
    for q, (_, lk, rk) in rs.pairs.items():
        psi[lk] = (q - 1, f[q] - 1)
        psi[rk] = (q - 1, g[q] - 1)

    return ReducedTriangulation(Gstar, m, mprime, f, g, psi, rs)
