"""Lifting: greedy minimal integer heights, ceilings, truncation."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import shedpoly.lifting as lifting
from shedpoly.corpus import (
    gen_stacked,
    pentagon_fan,
    split_square,
    stacked_k4,
    triangle,
)
from shedpoly.embedding import grid_embed
from shedpoly.griddiam import gen_grid_triangulation, grid_shedding, tau_profile
from shedpoly.lifting import (
    BoundaryNotTriangle,
    NotSequentiallyConvex,
    _check_sequentially_convex,
    height_bound,
    lift,
    truncate_to_polytope,
)
from shedpoly.triangulation import PlaneTriangulation, shedding_sequence
from test_acceptance import corpus
from test_triangulation import fan, ladder, polygon_disk, relabel


def embed_of(G):
    u, v = G.boundary[0], G.boundary[1]
    a = shedding_sequence(G, u, v)
    return grid_embed(G, a), a


def grid_instances():
    for p, q, ell, seed in ((4, 4, 2, 3), (5, 5, 3, 7), (6, 5, 2, 11)):
        gt = gen_grid_triangulation(p, q, ell, seed)
        plan = grid_shedding(gt)
        yield gt.T, plan.sequence


def small_instances():
    for G in (triangle(), split_square(), stacked_k4(), pentagon_fan(),
              gen_stacked(6, 1), gen_stacked(12, 3), gen_stacked(25, 4)):
        emb, a = embed_of(G)
        yield G, emb, a
    for G, a in grid_instances():
        yield G, grid_embed(G, a), a


def test_height_bound_values():
    assert height_bound(3, 0) == 1
    assert height_bound(4, 1) == 32702465
    assert height_bound(10, 1) == 49900000001


def test_triangle_lift_is_flat():
    G = triangle()
    emb, a = embed_of(G)
    P = lift(emb, a)
    assert P.heights == {0: 0, 1: 0, 2: 0}
    assert P.facets == G.triangles
    assert P.m == {0: 0, 1: 0, 2: 0}
    assert oracles.max_height(P) == 0


def test_stacked_k4_heights():
    G = stacked_k4()
    emb, a = embed_of(G)
    assert a.order == (0, 1, 3, 2)
    P = lift(emb, a)
    assert P.heights == {0: 0, 1: 0, 3: 0, 2: 1}
    assert P.m[2] == 0


def test_split_square_heights():
    G = split_square()
    emb, a = embed_of(G)
    P = lift(emb, a)
    assert P.heights == {0: 0, 1: 0, 2: 0, 3: 1}


def test_heights_match_global_oracle():
    # the library clears only the faces across the link edges; the oracle
    # clears every face of the prefix -- the two must coincide
    for G, emb, a in small_instances():
        P = lift(emb, a)
        want = oracles.greedy_lift_heights(G, a.order, emb.coords)
        assert P.heights == want, f"n={G.n}"


def assert_star_scan_heights(G, emb, a, P):
    """P's heights equal the star scan's, and h(v) <= (500n^8)^depth(v) for
    every vertex: the bound lift no longer asserts per vertex."""
    assert P.heights == oracles.lift_heights_star_scan(emb, a)
    B = 500 * G.n**8
    depth = tau_profile(G, a).depth
    for v, h in P.heights.items():
        assert h <= B ** depth[v], v


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder", "polygon", "grid")),
    size=st.integers(4, 40),
    seed=st.integers(0, 10**6),
    edge=st.integers(0, 10**6),
    flip=st.booleans(),
    sparse=st.booleans(),
)
def test_heights_match_the_star_scan(shape, size, seed, edge, flip, sparse):
    # the faces across the link edges hold the highest plane of the prefix
    if shape == "grid":
        gt = gen_grid_triangulation(5 + size % 10, 5 + seed % 10, 2 + edge % 3, seed)
        G, a = gt.T, grid_shedding(gt).sequence
    else:
        if shape == "stacked":
            G = gen_stacked(size, seed)
        elif shape == "fan":
            G = fan(size)
        elif shape == "ladder":
            G = ladder(max(2, size // 2))
        else:
            b = 3 + seed % (size - 2)
            G = polygon_disk(b, size - b, seed)
        if sparse:
            G = relabel(G, seed)
        b = G.boundary
        u, v = b[edge % len(b)], b[(edge + 1) % len(b)]
        a = shedding_sequence(G, *((v, u) if flip else (u, v)))
    emb = grid_embed(G, a)
    assert_star_scan_heights(G, emb, a, lift(emb, a))


def test_heights_match_the_star_scan_on_the_acceptance_corpus():
    for item in corpus():
        assert_star_scan_heights(item.G, item.emb, item.a, item.P)


def test_lift_reads_one_face_per_link_edge(monkeypatch):
    # sum over i of (k_i - 1) floor_plane calls: 1997 on fan-2000, where the
    # star scan around the apex made 1,995,003
    calls = 0
    real = lifting.floor_plane

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    G = fan(2000)
    emb, a = embed_of(G)
    monkeypatch.setattr(lifting, "floor_plane", counting)
    lift(emb, a)
    assert calls == sum(len(link) - 1 for link in a.links) == 1997


def test_lift_is_convex():
    for G, emb, a in small_instances():
        P = lift(emb, a)
        assert oracles.lift_locally_convex(P), f"n={G.n}"
        if G.n <= 50:
            assert oracles.lift_globally_convex(P), f"n={G.n}"


def test_height_ceilings_recomputed():
    for G, emb, a in small_instances():
        P = lift(emb, a)
        n = G.n
        pos = {v: i + 1 for i, v in enumerate(a.order)}
        adj = G.adjacency()
        for i in range(4, n + 1):
            v = a.order[i - 1]
            mi = max(P.heights[u] for u in adj[v] if pos[u] < i)
            assert P.m[v] == mi
            assert P.heights[v] <= 499 * n**8 * mi + 1
        tau = oracles.tau_by_longest_path(G, a.order)
        assert oracles.max_height(P) <= (500 * n**8) ** tau
        assert P.height_bits() == max(h.bit_length() for h in P.heights.values())


def test_lift_deterministic():
    G = gen_stacked(30, 9)
    emb, a = embed_of(G)
    assert lift(emb, a) == lift(emb, a)


def test_rejects_non_convex_drawing():
    G = split_square()
    emb, a = embed_of(G)
    v4 = a.order[3]
    bad = dict(emb.coords)
    bad[v4] = (emb.coords[v4][0], max(1, emb.coords[v4][1] // 6))
    with pytest.raises(NotSequentiallyConvex):
        lift(replace(emb, coords=bad), a)
    # a_4 on the segment between its link ends: two equal chain slopes
    u, w = (emb.coords[x] for x in a.link(4))
    assert (u[0] + w[0]) % 2 == 0 == (u[1] + w[1]) % 2
    bad[v4] = ((u[0] + w[0]) // 2, (u[1] + w[1]) // 2)
    with pytest.raises(NotSequentiallyConvex, match="slopes not strictly decreasing"):
        lift(replace(emb, coords=bad), a)


def _convexity_message(coords, a):
    try:
        _check_sequentially_convex(coords, a)
    except NotSequentiallyConvex as exc:
        return str(exc)
    return None


def test_convexity_check_reports_what_a_full_scan_reports():
    # the incremental walk must name the same prefix and chain edge as a scan
    # of every prefix's whole chain, whichever chain pair a tampered vertex
    # breaks, and whenever it breaks it
    rng = random.Random(7)
    fan = PlaneTriangulation(range(20), [(0, i, i + 1) for i in range(1, 19)], range(20))
    cases = [(G, emb, a) for G, emb, a in small_instances() if G.n >= 5]
    cases.append((fan, *embed_of(fan)))
    seen = set()
    for G, emb, a in cases:
        assert _convexity_message(emb.coords, a) is None
        for v in a.order[3:]:
            x, y = emb.coords[v]
            for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0), (0, rng.randint(2, 10**5)),
                           (0, -rng.randint(2, 10**5)), (rng.randint(-300, 300), 0)):
                bad = {**emb.coords, v: (x + dx, y + dy)}
                got = _convexity_message(bad, a)
                assert got == oracles.sequentially_convex_oracle(bad, a), (G.n, v, dx, dy)
                if got is not None:
                    seen.add(got.split(": ")[1].split(" at ")[0])
    assert seen == {"chain x not increasing", "chain slopes not strictly decreasing"}


def test_rejects_a_link_off_the_chain():
    G = gen_stacked(12, 3)
    emb, a = embed_of(G)
    bad = replace(a, links=(a.link(4)[::-1],) + a.links[1:])
    with pytest.raises(NotSequentiallyConvex, match="prefix 4: link of .* is not a run"):
        lift(emb, bad)


def test_truncate_stacked_k4():
    G = stacked_k4()
    emb, a = embed_of(G)
    Q = truncate_to_polytope(lift(emb, a), emb)
    assert Q.truncated == (0, 1, 2)
    assert set(Q.facets) == {(0, 3, 1), (1, 3, 2), (0, 2, 3), (0, 1, 2)}
    edges = set()
    for t in Q.facets:
        for j in range(3):
            u, v = t[j], t[(j + 1) % 3]
            edges.add((min(u, v), max(u, v)))
    assert len(edges) == 6  # tetrahedron: V - E + F = 4 - 6 + 4 = 2


def test_truncate_triangle_boundary_corpus():
    for G in (stacked_k4(), gen_stacked(9, 2), gen_stacked(40, 6)):
        emb, a = embed_of(G)
        P = lift(emb, a)
        Q = truncate_to_polytope(P, emb)
        assert len(Q.facets) == len(P.facets) + 1
        assert Q.heights == P.heights


def test_truncate_needs_triangle_boundary():
    G = split_square()
    emb, a = embed_of(G)
    with pytest.raises(BoundaryNotTriangle):
        truncate_to_polytope(lift(emb, a), emb)
    # a bare triangle closes into a flat doubled face, not a 3-polytope
    emb3, a3 = embed_of(triangle())
    with pytest.raises(BoundaryNotTriangle):
        truncate_to_polytope(lift(emb3, a3), emb3)
