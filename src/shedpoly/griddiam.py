"""Shedding depth: per-sequence profiles, exact minima, and lattice grids.

The depth of a vertex under a shedding sequence is one more than the largest
depth among its earlier neighbors (the first vertex has depth 1); the depth of
the sequence is the maximum over vertices.  Small instances admit exhaustive
minimization over all shedding sequences.  For triangulations of a p x q
lattice rectangle whose edges each fit an ell x ell subgrid, a staged batch
schedule produces a sequence of depth at most 6*ell*(p+q) using at most
ell*(2p+6q) batches of pairwise non-adjacent vertices.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .triangulation import (
    PeelEngine,
    PlaneTriangulation,
    SheddingSequence,
    edge_key,
    peel_order,
    rot_min_first,
    validate,
)


class TooLarge(Exception):
    """Exhaustive search refused: the instance exceeds the hard size limit."""


class BadParams(Exception):
    """Grid parameters out of range (need 2 <= ell <= min(p, q)), or a disk
    that is not the lattice grid its parameters describe."""


class InvariantViolation(Exception):
    """A staged-schedule invariant failed; signals a bug, not bad input."""


# -- depth profiles -------------------------------------------------------------


@dataclass(frozen=True)
class TauProfile:
    """Vertex depths along one shedding sequence; tau is their maximum."""

    order: tuple[int, ...]
    depth: dict[int, int]
    tau: int


def tau_profile(G: PlaneTriangulation, a: SheddingSequence) -> TauProfile:
    """Depths: depth(a_1) = 1, else 1 + max depth over earlier neighbors.

    Over the disk the sequence was peeled from (G is a.G), the profile is a
    fact of the sequence: it is computed once and kept on it, as its other
    cached facts are, so lift's height ceiling and check_grid_bounds read one
    depth pass.
    """
    if G is not a.G:
        return _profile(G, a.order)
    prof = a.__dict__.get("_tau_profile")
    if prof is None:
        prof = a.__dict__["_tau_profile"] = _profile(G, a.order)
    return prof


def _profile(G: PlaneTriangulation, order: tuple[int, ...]) -> TauProfile:
    pos = {v: i for i, v in enumerate(order, start=1)}
    adj = G.adjacency()
    depth: dict[int, int] = {}
    for i, v in enumerate(order, start=1):
        preds = [u for u in adj[v] if pos[u] < i]
        depth[v] = 1 + max((depth[u] for u in preds), default=0)
    return TauProfile(order, depth, max(depth.values()))


def min_tau_exhaustive(G: PlaneTriangulation, limit: int = 9) -> tuple[int, SheddingSequence]:
    """Minimum depth over all shedding sequences of G, with a witness.

    Brute force over every deletion order and every admissible base triple;
    the (depth, order) pair is minimized lexicographically, so the witness is
    deterministic.  Each branch peels a fresh engine built on the current
    prefix's snapshot, and only the winning order is peeled into a
    sequence.  Refuses instances with more than ``limit`` vertices.
    """
    if G.n > limit:
        raise TooLarge(f"n={G.n} exceeds the exhaustive-search limit {limit}")
    base_edges = G.boundary_edges()
    best: Optional[tuple[int, tuple[int, ...]]] = None

    def close(H: PeelEngine, suffix: list[int]) -> None:
        nonlocal best
        for x, y, z in permutations(sorted(H.vertices)):
            if edge_key(x, y) not in base_edges:
                continue
            order = (x, y, z) + tuple(reversed(suffix))
            t = _profile(G, order).tau
            if best is None or (t, order) < best:
                best = (t, order)

    def search(H: PeelEngine, suffix: list[int]) -> None:
        if H.n == 3:
            close(H, suffix)
            return
        for w in sorted(H.succ):
            if H.is_shedding(w):
                H2 = PeelEngine(H.snapshot())
                H2.delete(w)
                suffix.append(w)
                search(H2, suffix)
                suffix.pop()

    search(PeelEngine(G), [])
    if best is None:
        raise InvariantViolation("exhaustive search found no shedding sequence")
    return best[0], peel_order(G, best[1])


# -- lattice grid triangulations ------------------------------------------------


def _vid(p: int, x: int, y: int) -> int:
    """The row-major id of the 1-based lattice point (x, y), p points a row."""
    return (y - 1) * p + (x - 1)


def _xy(p: int, v: int) -> tuple[int, int]:
    """The lattice point of the row-major id v; the inverse of _vid."""
    return v % p + 1, v // p + 1


@dataclass(frozen=True)
class GridTriangulation:
    """A triangulation of the p x q integer lattice rectangle.

    Vertex ids are row-major: the lattice point (x, y), 1-based, has id
    (y-1)*p + (x-1).  Every edge spans at most ell-1 in each coordinate.
    """

    p: int
    q: int
    ell: int
    T: PlaneTriangulation

    def vid(self, x: int, y: int) -> int:
        return _vid(self.p, x, y)

    def xy(self, v: int) -> tuple[int, int]:
        return _xy(self.p, v)


def _rect_boundary(p: int, q: int) -> tuple[int, ...]:
    cyc = [_vid(p, x, 1) for x in range(1, p + 1)]
    cyc += [_vid(p, p, y) for y in range(2, q + 1)]
    cyc += [_vid(p, x, q) for x in range(p - 1, 0, -1)]
    cyc += [_vid(p, 1, y) for y in range(q - 1, 1, -1)]
    return tuple(cyc)


def _check_lattice(gt: GridTriangulation) -> None:
    """Raise BadParams unless gt.T triangulates the p x q lattice rectangle
    with every edge inside an ell x ell subgrid, the hypotheses of the staged
    schedule.

    Checked on the lattice points the row-major ids stand for: the ids are
    0..p*q-1, the boundary runs once ccw around the rectangle, every face is
    strictly ccw, and every edge spans at most ell-1 in each coordinate.  A
    disk whose faces are all positively oriented and whose boundary goes
    once around the rectangle covers each point of it exactly once (every
    preimage of a generic point counts +1 towards the boundary's winding
    number, which is 1), so it is a triangulation of the rectangle.
    """
    p, q, ell, T = gt.p, gt.q, gt.ell, gt.T
    if not 2 <= ell <= min(p, q):
        raise BadParams(f"need 2 <= ell <= min(p, q), got ell={ell}, p={p}, q={q}")
    if list(T.vertices) != list(range(p * q)):
        raise BadParams("grid instances must use row-major ids 0..p*q-1")
    cyc = T.boundary
    j = cyc.index(0) if 0 in cyc else 0
    if cyc[j:] + cyc[:j] != _rect_boundary(p, q):
        raise BadParams(f"boundary is not the {p}x{q} rectangle")
    xs = [_xy(p, v)[0] for v in range(p * q)]
    ys = [_xy(p, v)[1] for v in range(p * q)]
    for t in T.triangles:
        a, b, c = t
        ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
            raise BadParams(f"face {t} is not ccw on the lattice")
        if not (
            -ell < ax - bx < ell and -ell < ay - by < ell
            and -ell < bx - cx < ell and -ell < by - cy < ell
            and -ell < cx - ax < ell and -ell < cy - ay < ell
        ):
            raise BadParams(f"face {t} has an edge outside every {ell}x{ell} subgrid")


def gen_grid_triangulation(p: int, q: int, ell: int, seed: int = 0) -> GridTriangulation:
    """Random triangulation of the p x q lattice with edges inside ell x ell.

    Each unit cell gets a random diagonal; for ell > 2 roughly 10*p*q random
    edge flips then inject longer edges (a flip is applied only when the
    surrounding quadrilateral is strictly convex and the new edge still fits
    an ell x ell subgrid).  Deterministic for a fixed seed.

    The random draws are part of the output: one rng.random() per cell, row
    by row, then one rng.randrange(len(interior)) per flip attempt over the
    sorted list of interior edge keys.  A flip deletes the edge at the rank
    just drawn and inserts the new key in order, so the list, and with it
    every later draw, is the one a search-and-remove would leave.  During
    the flips the face map ``third`` is the only record of the faces; the
    min-first triangles are read off it at the end.
    """
    if not 2 <= ell <= min(p, q):
        raise BadParams(f"need 2 <= ell <= min(p, q), got ell={ell}, p={p}, q={q}")
    rng = random.Random(seed)
    coords = {v: _xy(p, v) for v in range(p * q)}
    third: dict[tuple[int, int], int] = {}

    for cy in range(1, q):
        for cx in range(1, p):
            a = _vid(p, cx, cy)
            b, c, d = a + 1, a + p + 1, a + p
            if rng.random() < 0.5:  # faces (a, b, c) and (a, c, d)
                third[(a, b)], third[(b, c)], third[(c, a)] = c, a, b
                third[(a, c)], third[(c, d)], third[(d, a)] = d, a, c
            else:  # faces (a, b, d) and (b, c, d)
                third[(a, b)], third[(b, d)], third[(d, a)] = d, a, b
                third[(b, c)], third[(c, d)], third[(d, b)] = d, b, c

    if ell > 2:
        interior = sorted(k for k in third if k[0] < k[1] and (k[1], k[0]) in third)
        size = len(interior)  # a flip swaps one key for another
        xs = [x for x, _ in coords.values()]
        ys = [y for _, y in coords.values()]
        span = ell - 1
        for _ in range(10 * p * q):
            i = rng.randrange(size)
            u, v = interior[i]
            c = third[(u, v)]
            d = third[(v, u)]
            cx, cy, dx, dy = xs[c], ys[c], xs[d], ys[d]
            if not (-span <= cx - dx <= span and -span <= cy - dy <= span):
                continue
            if (c, d) in third or (d, c) in third:
                continue
            ux, uy, vx, vy = xs[u], ys[u], xs[v], ys[v]
            # u and v strictly on opposite sides of the line c d, and c and d
            # strictly on opposite sides of u v (a product >= 0 is a zero or
            # one sign twice): the quadrilateral u d v c is strictly convex
            ex, ey = dx - cx, dy - cy
            if (ex * (uy - cy) - ey * (ux - cx)) * (ex * (vy - cy) - ey * (vx - cx)) >= 0:
                continue
            ex, ey = vx - ux, vy - uy
            if (ex * (cy - uy) - ey * (cx - ux)) * (ex * (dy - uy) - ey * (dx - ux)) >= 0:
                continue
            # faces (u, v, c) and (v, u, d) become (c, u, d) and (d, v, c)
            del third[(u, v)], third[(v, u)]
            third[(c, u)], third[(u, d)], third[(d, c)] = d, c, u
            third[(d, v)], third[(v, c)], third[(c, d)] = c, d, v
            del interior[i]
            insort(interior, (c, d) if c < d else (d, c))

    T = PlaneTriangulation(
        range(p * q),
        sorted((a, b, c) for (a, b), c in third.items() if a < b and a < c),
        _rect_boundary(p, q),
        coords,
    )
    errs = validate(T)
    if errs:
        raise InvariantViolation(f"generated grid invalid: {errs[0]}")
    return GridTriangulation(p, q, ell, T)


def uniform_grid_triangulation(p: int, q: int) -> GridTriangulation:
    """The all-one-way-diagonals triangulation of the p x q lattice (ell = 2)."""
    if min(p, q) < 2:
        raise BadParams(f"need p, q >= 2, got p={p}, q={q}")
    tris = []
    for cy in range(1, q):
        for cx in range(1, p):
            a, b = _vid(p, cx, cy), _vid(p, cx + 1, cy)
            c, d = _vid(p, cx + 1, cy + 1), _vid(p, cx, cy + 1)
            tris.append(rot_min_first((a, b, c)))
            tris.append(rot_min_first((a, c, d)))
    T = PlaneTriangulation(
        range(p * q),
        sorted(tris),
        _rect_boundary(p, q),
        {v: _xy(p, v) for v in range(p * q)},
    )
    errs = validate(T)
    if errs:
        raise InvariantViolation(f"generated grid invalid: {errs[0]}")
    return GridTriangulation(p, q, 2, T)


# -- the staged batch schedule ---------------------------------------------------


@dataclass(frozen=True)
class SheddingPlan:
    """A shedding sequence for a grid triangulation, grouped into batches.

    Batches are stored in sequence order (the batch deleted last comes
    first); each batch is a set of pairwise non-adjacent vertices.  stage
    maps every vertex to 0 (base triple), 3, 2 or 1; stages are
    non-increasing along the sequence after the base.
    """

    p: int
    q: int
    ell: int
    sequence: SheddingSequence
    antichains: tuple[frozenset[int], ...]
    stage: dict[int, int]
    tau: int

    @property
    def tau_bound(self) -> int:
        return 6 * self.ell * (self.p + self.q)

    @property
    def antichain_bound(self) -> int:
        return self.ell * (2 * self.p + 6 * self.q)


def grid_shedding(gt: GridTriangulation) -> SheddingPlan:
    """The three-stage batch schedule for a lattice grid triangulation.

    Stage 1 repeatedly removes, from every fourth column block of width ell,
    the highest remaining vertex above row ell (or, when that vertex is not
    itself a shedding vertex, the highest shedding vertex strictly inside the
    bottom-avoiding side of one of its diagonals).  Stage 2 does the same for
    tricolumns -- every fourth column block starting at the third together
    with both neighbors, clipped at the walls -- with threshold row 2*ell.
    Stage 3 clears the remaining low strip one vertex at a time.  One vertex
    per active block per round, so every round's removals are pairwise
    non-adjacent (edges span fewer than ell columns, and consecutive
    tricolumns are separated by a full untouched-stage-1 column).

    The carve regions come from the peel engine's own state.  A block top vk
    that does not shed meets a diagonal: its partner uk is the largest-key
    boundary neighbour of vk other than succ(vk) and pred(vk), because an
    edge with both ends on the boundary is a diagonal exactly when it is not
    a boundary edge.  PeelEngine.chord_sides floods the two sides of vk uk,
    and exactly one of them must be admissible.
    """
    _check_lattice(gt)
    p, q, ell = gt.p, gt.q, gt.ell
    T = gt.T

    # row-major ids order the lattice points like (y, x), so the highest
    # vertex, the rightmost among the highest, is the one with the largest id
    col = [_xy(p, v)[0] for v in range(p * q)]
    row = [_xy(p, v)[1] for v in range(p * q)]

    imax = (p + ell - 1) // ell
    group_cols = {
        i: frozenset(range(ell * (i - 1) + 1, min(ell * i, p) + 1)) for i in range(1, imax + 1)
    }
    far_cols = frozenset(
        c for i in range(1, imax + 1) if i % 4 == 3 for c in group_cols[i]
    )

    peel = PeelEngine(T)
    live = peel.vertices
    batches_del_order: list[frozenset[int]] = []
    stage_of: dict[int, int] = {}

    def greatest_shedding_in(region: set[int]) -> int:
        cands = [w for w in region if peel.is_shedding(w)]
        if not cands:
            raise InvariantViolation("carve region contains no shedding vertex")
        return max(cands)

    def run_stage(blocks: list[frozenset[int]], ymin: int, cand_ok, region_ok, label: int):
        """One deletion per active block per round; a block finishes its carve
        region before consulting its top vertex again.

        A block is active while it holds a vertex above ymin, but the vertex
        the diagonal argument is applied to is the greatest *admissible* one
        (cand_ok); the block top itself can be tucked under a rim edge that
        enters the block from the side, and an interior vertex meets no
        diagonal.  When that vertex lies on row ymin or below and neither
        side of its diagonal is admissible, the block sits out the round.
        Everything a round decides is read from the engine before the first
        of its members is deleted; then the round deletes its batch itself,
        checking just before each deletion that the member still sheds.

        region_ok(w) says whether w may lie in a carve region, and a side of
        a diagonal is admissible when all its vertices may.  Only batch
        members are deleted, so each round takes its batch out of the carve
        regions instead of intersecting them with the live vertices.  Each
        block is its ids in increasing order, that is by (row, column); dead
        ids are popped off its end, so the last one is its highest live
        vertex and says alone whether the block is active, and the first
        admissible id met scanning downwards is the greatest one.
        """
        regions: list[set[int]] = [set() for _ in blocks]
        block_of = [[v for v in T.vertices if col[v] in cols] for cols in blocks]
        while True:
            batch: list[int] = []
            for k, block in enumerate(block_of):
                if regions[k]:
                    batch.append(greatest_shedding_in(regions[k]))
                    continue
                while block and block[-1] not in live:
                    block.pop()
                if not block or row[block[-1]] <= ymin:
                    continue
                vk = next((v for v in reversed(block) if v in live and cand_ok(v)), None)
                if vk is None:
                    raise InvariantViolation("active block has no admissible vertex")
                if not peel.on_boundary(vk):
                    raise InvariantViolation(f"block-top vertex {vk} is interior")
                if peel.is_shedding(vk):
                    batch.append(vk)
                    continue
                ends = (peel.succ[vk], peel.pred[vk])
                partners = [u for u in peel.nbrs[vk] if peel.on_boundary(u) and u not in ends]
                if not partners:
                    raise InvariantViolation(f"{vk} neither sheds nor meets a diagonal")
                uk = max(partners)
                good = [S for S in peel.chord_sides(vk, uk, region_ok) if S is not None]
                if not good and row[vk] <= ymin:
                    continue
                if len(good) != 1:
                    raise InvariantViolation(
                        f"diagonal ({vk},{uk}) has {len(good)} admissible sides"
                    )
                regions[k] = good[0]
                batch.append(greatest_shedding_in(regions[k]))
            if not batch:
                return
            for ia in range(len(batch)):
                for ib in range(ia + 1, len(batch)):
                    if batch[ib] in peel.nbrs[batch[ia]]:
                        raise InvariantViolation(
                            f"batch members {batch[ia]}, {batch[ib]} are adjacent"
                        )
            for w in reversed(batch):
                stage_of[w] = label
                if not peel.is_shedding(w):
                    raise InvariantViolation(f"batch member {w} stopped shedding")
                peel.delete(w)
            batches_del_order.append(frozenset(batch))
            for region in regions:
                region.difference_update(batch)

    def stage1_ok(w) -> bool:
        return row[w] > 1 and col[w] not in far_cols

    def stage1_cand(v) -> bool:
        return row[v] > 1 and peel.on_boundary(v)

    stage1_blocks = [group_cols[i] for i in range(1, imax + 1) if i % 4 == 1]
    run_stage(stage1_blocks, ell, stage1_cand, stage1_ok, 1)
    for v in T.vertices:
        if col[v] in far_cols and v not in live:
            raise InvariantViolation(f"far-column vertex {v} deleted in stage 1")
    for x in range(1, p + 1):
        if gt.vid(x, 1) not in live:
            raise InvariantViolation(f"bottom-row vertex at x={x} deleted in stage 1")

    # rows 1..ell must form a connected induced strip before stage 2 trusts it
    low = [v for v in live if row[v] <= ell]
    adj = peel.nbrs
    seen = {low[0]}
    stack = [low[0]]
    lowset = set(low)
    while stack:
        for u in adj[stack.pop()]:
            if u in lowset and u not in seen:
                seen.add(u)
                stack.append(u)
    if seen != lowset:
        raise InvariantViolation("low strip is not connected before stage 2")

    # tricolumns centered on every fourth block starting at the third, kept
    # whenever they are nonempty after clipping to the rectangle -- a clipped
    # trailing tricolumn is what covers the rightmost block when the block
    # count is 2 mod 4
    stage2_blocks = []
    t = 3
    while t - 1 <= imax:
        cols = set()
        for i in (t - 1, t, t + 1):
            if 1 <= i <= imax:
                cols |= group_cols[i]
        if cols:
            stage2_blocks.append(frozenset(cols))
        t += 4

    def stage2_ok(w) -> bool:
        return row[w] > ell

    def stage2_cand(v) -> bool:
        return row[v] > 2 * ell

    run_stage(stage2_blocks, 2 * ell, stage2_cand, stage2_ok, 2)
    for v in live:
        if row[v] > 2 * ell:
            raise InvariantViolation(f"vertex {v} above row 2*ell after stage 2")

    done = len(peel.removed)
    if not peel.peel_smallest(lambda v: -v):
        raise InvariantViolation("no shedding vertex in stage 3")
    for w in peel.removed[done:]:
        stage_of[w] = 3
        batches_del_order.append(frozenset((w,)))

    # permutations of a sorted list come in lexicographic order, so this is
    # the smallest triple whose first two vertices span an original boundary edge
    base_edges = T.boundary_edges()
    final = sorted(live)
    order = next((t for t in permutations(final) if edge_key(t[0], t[1]) in base_edges), None)
    if order is None:
        raise InvariantViolation(f"final triangle {final} has no original boundary edge")
    for v in order:
        stage_of[v] = 0

    seq = peel.sequence(order)
    tau = tau_profile(T, seq).tau
    plan = SheddingPlan(
        p, q, ell, seq, tuple(reversed(batches_del_order)), dict(stage_of), tau
    )
    if tau > plan.tau_bound:
        raise InvariantViolation(f"depth {tau} exceeds 6*ell*(p+q) = {plan.tau_bound}")
    if len(plan.antichains) > plan.antichain_bound:
        raise InvariantViolation(
            f"{len(plan.antichains)} batches exceed ell*(2p+6q) = {plan.antichain_bound}"
        )
    return plan
