from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shedpoly import embedding
from shedpoly.corpus import gen_stacked, pentagon_fan, split_square, stacked_k4, triangle
from shedpoly.embedding import grid_embed
from shedpoly.griddiam import gen_grid_triangulation, grid_shedding
from shedpoly.reduction import (
    MalformedTreeSequence,
    build_reduced_triangulation,
    build_shedding_trees,
    reduce_trees,
)
from shedpoly.triangulation import (
    PlaneTriangulation,
    SheddingSequence,
    deletion_trace,
    edge_key,
    mirror,
    peel_order,
    shedding_sequence,
    validate,
)
from test_triangulation import base_disk, fan


def seq_of(G):
    return shedding_sequence(G, G.boundary[0], G.boundary[1])


def pipeline(G, a=None):
    """(a, the reference trees T_2..T_n, the reference reduction, the
    library's reduction)."""
    a = a or seq_of(G)
    ref = oracles.reference_reduction(a)
    rs = reduce_trees(build_shedding_trees(G, a), a)
    return a, oracles.shedding_trees(ref.store), ref, rs


def instances():
    yield triangle()
    yield split_square()
    yield stacked_k4()
    yield pentagon_fan()
    for n, seed in [(7, 11), (10, 12), (16, 13), (30, 14)]:
        yield gen_stacked(n, seed)


# -- shedding trees -------------------------------------------------------------


def test_triangle_tree():
    a, trees, _, rs = pipeline(triangle())
    assert len(trees) == 2
    t3 = trees[-1]
    assert oracles.node_count(t3) == 3
    root = t3.store.root
    assert root.key == (0, 1)
    assert root.left.key == edge_key(2, 0)
    assert root.right.key == edge_key(2, 1)
    assert rs.store.root == (0, 1)
    assert rs.store.by_key == {(0, 1): 2, (0, 2): 3, (1, 2): 3}
    assert rs.store.created == {3: ((0, 2), (0, 1), (1, 2), (0, 1))}


def test_square_tree():
    a, trees, _, rs = pipeline(split_square())
    t4 = trees[-1]
    assert a.order == (0, 1, 2, 3)
    assert oracles.node_count(t4) == 5
    # vertex 3 attaches over the chain (0, 2): both new nodes hang off (0, 2)
    xi = t4.store.by_key[(0, 2)]
    assert xi.left.key == (0, 3) and xi.left.step == 4
    assert xi.right.key == (2, 3) and xi.right.step == 4
    assert rs.store.created[4] == ((0, 3), (0, 2), (2, 3), (0, 2))
    assert rs.store.by_key[(0, 3)] == rs.store.by_key[(2, 3)] == 4


def test_tree_node_counts():
    for G in instances():
        a, trees, _, _ = pipeline(G)
        for tree in trees:
            assert oracles.node_count(tree) == 1 + 2 * (tree.upto - 2)


def test_tree_matches_prefix_trees():
    # T_i of (G, a) equals the full tree of the prefix instance (G_i, a[:i])
    G = gen_stacked(12, 99)
    a, trees, _, _ = pipeline(G)

    for i in (5, 8, 12):
        P = oracles.induced_disk(G, a.order[:i])
        pref = peel_order(P, a.order[:i])
        ptrees = oracles.shedding_trees(oracles.reference_trees(pref))
        assert oracles.tree_shape(ptrees[-1]) == oracles.tree_shape(trees[i - 2])


# -- reduction -------------------------------------------------------------------


def test_reduce_all_degree_two_is_identity():
    G = split_square()
    a, trees, ref, rs = pipeline(G)
    assert a.degrees == (0, 1, 2, 2)
    assert rs.rho == {1: 1, 2: 2, 3: 3, 4: 4}
    for i in range(2, 5):
        assert oracles.reduced_shape(ref, i) == oracles.tree_shape(trees[i - 2])


def test_reduce_stacked_k4():
    G = stacked_k4()
    a, trees, ref, rs = pipeline(G)
    assert a.degrees == (0, 1, 2, 3)
    assert ref.R == (1, 2, 3) and rs.rho == {1: 1, 2: 2, 3: 3}
    assert ref.h == (1, 2, 3, 3)
    assert oracles.reduced_node_count(ref.store, ref.R, 4) == 3
    # T*_4 collapses to T_3
    assert oracles.reduced_shape(ref, 4) == oracles.tree_shape(trees[1])
    # the contracted step-4 nodes represent the surviving step-3 edges and
    # carry their template edges
    assert ref.rep[(0, 2)] == (0, 3)
    assert ref.rep[(1, 2)] == (1, 3)
    assert rs.zmap[(0, 2)] == rs.zmap[(0, 3)] == (2, 0)
    assert rs.zmap[(1, 2)] == rs.zmap[(1, 3)] == (2, 1)


def full_binary(shape) -> bool:
    if shape is None:
        return True
    l, r = shape
    if (l is None) != (r is None):
        return False
    return full_binary(l) and full_binary(r)


def test_reduced_trees_full_binary():
    for G in instances():
        _, _, ref, _ = pipeline(G)
        for i in range(2, ref.n + 1):
            assert full_binary(oracles.reduced_shape(ref, i))
            expected = 1 if i == 2 else 1 + 2 * (oracles.h_of(ref, i) - 2)
            assert oracles.reduced_node_count(ref.store, ref.R, i) == expected


def test_malformed_stores_are_refused_with_their_messages():
    # (0, 2) turns internal at step 5 through its contracted child (0, 3);
    # step 6 hangs a second degree-2 pair under its other contracted child
    from types import SimpleNamespace

    from shedpoly.reduction import TreeStore

    store = TreeStore((0, 1), 6)
    store.add_pair(3, (0, 2), (0, 1), (1, 2), (0, 1))
    store.add_pair(4, (0, 3), (0, 2), (2, 3), (0, 2))
    store.add_pair(5, (0, 4), (0, 3), (3, 4), (0, 3))
    store.add_pair(6, (2, 5), (2, 3), (3, 5), (2, 3))
    with pytest.raises(MalformedTreeSequence, match=r"^step 6: parent \(0, 2\) already internal$"):
        reduce_trees(store, SimpleNamespace(degrees=(0, 1, 2, 3, 2, 2)))
    for args, msg in (
        (((0, 4), (1, 2), (7, 8), (1, 2)), "edge node created twice at step 7"),
        (((7, 8), (1, 2), (7, 8), (1, 2)), "edge node created twice at step 7"),
        (((7, 8), (0, 1), (7, 9), (1, 2)), "child slot already taken at step 7"),
        (((7, 8), (1, 2), (7, 9), (0, 2)), "child slot already taken at step 7"),
    ):
        with pytest.raises(MalformedTreeSequence, match=f"^{msg}$"):
            store.add_pair(7, *args)


def test_rho_h_consistency():
    for G in instances():
        a, _, ref, rs = pipeline(G)
        R = tuple(rs.rho)
        assert R[:3] == (1, 2, 3) and R == ref.R
        assert R[3:] == tuple(i for i in range(4, a.n + 1) if a.degrees[i - 1] == 2)
        for i in R:
            assert oracles.h_of(ref, i) == rs.rho[i]
        for i in range(1, ref.n + 1):
            assert oracles.h_of(ref, i) == sum(1 for r in R if r <= i)


# -- reduced triangulation -------------------------------------------------------


def test_base_case_coordinates():
    for G in (triangle(), stacked_k4()):
        *_, rs = pipeline(G)
        rt = build_reduced_triangulation(rs)
        assert rt.size == 3
        assert rt.m == 0 and rt.mprime == 0
        assert rt.Gstar.coords == {0: (-1, 0), 1: (1, 0), 2: (0, 1)}


def mirrored_pipeline(G):
    a = seq_of(G)
    M = mirror(G)
    return reduce_trees(build_shedding_trees(M, a, deletion_trace(M, a)), a)


def rt_for(G):
    *_, rs = pipeline(G)
    try:
        return build_reduced_triangulation(rs)
    except MalformedTreeSequence:
        return build_reduced_triangulation(mirrored_pipeline(G))


def test_left_heavy_raises_and_mirror_recovers():
    G = pentagon_fan()
    *_, rs = pipeline(G)
    assert rs.internal_counts() == (2, 0)
    with pytest.raises(MalformedTreeSequence):
        build_reduced_triangulation(rs)
    rt = build_reduced_triangulation(mirrored_pipeline(G))
    assert (rt.m, rt.mprime) == (0, 2)
    assert validate(rt.Gstar) == []


def test_reduced_triangulation_properties():
    for G in instances():
        rt = rt_for(G)
        R = rt.size
        Gs = rt.Gstar
        assert validate(Gs) == []
        assert rt.m <= rt.mprime and rt.m + rt.mprime + 3 == R
        xs = [xy[0] for xy in Gs.coords.values()]
        ys = [xy[1] for xy in Gs.coords.values()]
        # bounds: width within 2(R-2), height within C(R-1, 2)
        assert max(xs) - min(xs) == 2 * (rt.mprime + 1) <= 2 * (R - 2)
        assert max(ys) - min(ys) == comb(rt.mprime + 2, 2) <= comb(R - 1, 2)
        # all vertices on the arc y = C(m'+2,2) - C(|x|+1,2)
        for x, y in Gs.coords.values():
            assert y == comb(rt.mprime + 2, 2) - comb(abs(x) + 1, 2)
        # boundary slopes strictly decreasing over the base
        cyc = Gs.boundary
        chain = [0] + [cyc[len(cyc) - 1 - j] for j in range(len(cyc) - 2)] + [1]
        slopes = [oracles._fslope(Gs.coords[u], Gs.coords[v]) for u, v in zip(chain, chain[1:])]
        assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))
        if rt.m <= rt.mprime:
            assert slopes[0] == Fraction(rt.m + rt.mprime + 2, 2) >= rt.m + 1
        # 0, 1, ..., R-1 really is a shedding sequence of Gstar
        peel_order(Gs, range(R))
        if R <= 7:
            assert oracles.is_shedding_sequence(Gs, tuple(range(R)))


def test_template_tree_isomorphism():
    # the shedding trees of G* replay the distinct contracted trees of G
    for G in instances():
        rt = rt_for(G)
        a, _, ref, _ = pipeline(G)
        astar = peel_order(rt.Gstar, range(rt.size))
        star_trees = oracles.shedding_trees(oracles.reference_trees(astar))
        m, mp = oracles.reference_internal_counts(ref)
        if m > mp:
            ref = oracles.reference_reduction(a.mirrored())
        for i in range(3, ref.n + 1):
            h = oracles.h_of(ref, i)
            assert oracles.reduced_shape(ref, i) == oracles.tree_shape(star_trees[h - 2]), (repr(G), i)


@pytest.mark.parametrize("label", ["stacked-160", "fan-200"])
def test_one_inorder_traversal_per_reduced_structure(monkeypatch, label):
    # grid_embed reads m, m' and the template's x ranks off the one in-order
    # that reduce_trees lays out; when it mirrors, the template takes that
    # in-order reversed instead of laying out again
    if label == "stacked-160":
        G = gen_stacked(160, 0)
    else:
        G = PlaneTriangulation(range(200), [(0, i, i + 1) for i in range(1, 199)], range(200))
    reduced, templated = [], []

    def on_reduce(store, a):
        reduced.append(reduce_trees(store, a))
        return reduced[-1]

    def on_template(rs):
        templated.append(rs)
        return build_reduced_triangulation(rs)

    monkeypatch.setattr(embedding, "reduce_trees", on_reduce)
    monkeypatch.setattr(embedding, "build_reduced_triangulation", on_template)
    emb = grid_embed(G, seq_of(G))
    assert len(reduced) == len(templated) == 1
    assert emb.mirrored == (label == "fan-200")
    order = reduced[0].order
    assert templated[0].order == (order[::-1] if emb.mirrored else order)


def test_template_edge_lookup():
    G = stacked_k4()
    a, _, ref, rs = pipeline(G)
    corr = grid_embed(G, a).correspondence
    # the contracted step-4 edges (0, 2) and (1, 2) inherit their ancestors' template edges
    want = {(0, 1): (0, 1), (0, 3): (2, 0), (1, 3): (2, 1), (0, 2): (2, 0), (1, 2): (2, 1)}
    assert rs.zmap == corr == oracles.reference_zmap(ref) == want


def _preorder(shape) -> list[int]:
    """A nested (left, right) shape as a flat preorder list, 1 for a node and
    0 for an absent child, walked with a stack: comparing deep nested tuples
    directly would itself recurse."""
    out, stack = [], [shape]
    while stack:
        s = stack.pop()
        if s is None:
            out.append(0)
        else:
            out.append(1)
            stack += (s[1], s[0])
    return out


def test_long_fan_trees_without_recursion():
    # apex 0 over the path 1..1099: every step has degree 2, and the trees
    # are chains about a thousand levels deep
    n = 1100
    G = PlaneTriangulation(range(n), [(0, i, i + 1) for i in range(1, n - 1)], range(n))
    a, trees, ref, rs = pipeline(G)
    T = trees[-1]
    flat = _preorder(oracles.tree_shape(T))
    assert flat.count(1) == oracles.node_count(T)
    assert _preorder(oracles.reduced_shape(ref, n)) == flat
    assert len(rs.order) == n - 2


# -- the mirrored reduction ------------------------------------------------------


def assert_mirror_matches_a_fresh_reduction(a) -> bool:
    """rs.mirrored() equals the reduction built over a.mirrored() from
    scratch, field by field; returns whether a is left-heavy (m > m'),
    the case grid_embed mirrors."""
    rs = reduce_trees(build_shedding_trees(a.G, a), a)
    w = a.mirrored()
    fresh = reduce_trees(build_shedding_trees(w.G, w), w)
    got = rs.mirrored()
    assert got.store is rs.store
    assert got.store.by_key == fresh.store.by_key
    for name in ("rho", "f", "g", "order", "zmap"):
        assert getattr(got, name) == getattr(fresh, name), name
    m, mp = rs.internal_counts()
    assert got.internal_counts() == fresh.internal_counts() == (mp, m)
    return m > mp


def test_mirrored_reduction_matches_a_fresh_one_on_the_acceptance_corpus():
    from test_acceptance import corpus

    heavy = [assert_mirror_matches_a_fresh_reduction(item.a) for item in corpus()]
    assert any(heavy) and not all(heavy)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder", "polygon", "grid")),
    size=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    edge=st.integers(0, 10**6),
    flip=st.booleans(),
)
def test_mirrored_reduction_matches_a_fresh_one_on_random_disks(shape, size, seed, edge, flip):
    if shape == "grid":
        G = gen_grid_triangulation(12, 12, 2 + seed % 2, seed).T
    else:
        G = base_disk(shape, size, seed)
    b = G.boundary
    u, v = b[edge % len(b)], b[(edge + 1) % len(b)]
    if flip:
        u, v = v, u
    assert_mirror_matches_a_fresh_reduction(shedding_sequence(G, u, v))


def assert_forward_reduction_matches_the_reference(rs, a):
    """The flat store and the forward layout of rs against the node objects,
    parent-chain chase, stack in-order and bisect layout of the reference
    reduction of a."""
    ref = oracles.reference_reduction(a)
    assert rs.store.root == ref.store.root.key
    assert rs.store.by_key == {k: nd.step for k, nd in ref.store.by_key.items()}
    assert rs.rho == ref.rho
    assert (rs.f, rs.g, rs.order) == oracles.reference_layout(ref)
    key_of_q = {q: pk for q, (pk, _, _) in ref.pairs.items()}
    key_of_q[3] = ref.store.root.key
    assert [key_of_q[q] for q in rs.order] == oracles.reference_inorder(ref)
    assert rs.zmap == oracles.reference_zmap(ref)
    assert rs.internal_counts() == oracles.reference_internal_counts(ref)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder", "grid", "grid-staged")),
    size=st.integers(3, 60),
    seed=st.integers(0, 10**6),
    edge=st.integers(0, 10**6),
    flip=st.booleans(),
)
def test_forward_reduction_matches_the_reference(shape, size, seed, edge, flip):
    # the store, rho, template ends, in-order, template edges and (m, m')
    # against the reference trees and layout, plain and mirrored;
    # grid-staged takes the grid's own three-stage schedule
    if shape.startswith("grid"):
        gt = gen_grid_triangulation(4 + size % 9, 4 + seed % 9, 2 + seed % 2, seed)
        G = gt.T
    else:
        G = base_disk(shape, size, seed)
    b = G.boundary
    u, v = b[edge % len(b)], b[(edge + 1) % len(b)]
    if flip:
        u, v = v, u
    a = grid_shedding(gt).sequence if shape == "grid-staged" else shedding_sequence(G, u, v)
    rs = reduce_trees(build_shedding_trees(G, a), a)
    assert_forward_reduction_matches_the_reference(rs, a)
    assert_forward_reduction_matches_the_reference(rs.mirrored(), a.mirrored())


@pytest.mark.parametrize("label", ["stacked-160-s1", "fan-200"])
def test_grid_embed_builds_and_reduces_the_trees_once(monkeypatch, label):
    if label == "fan-200":
        G = fan(200)
    else:
        G = gen_stacked(160, 1)
    calls = {"build": 0, "reduce": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(embedding, "build_shedding_trees", counted("build", build_shedding_trees))
    monkeypatch.setattr(embedding, "reduce_trees", counted("reduce", reduce_trees))
    emb = grid_embed(G, seq_of(G))
    assert emb.mirrored
    assert calls == {"build": 1, "reduce": 1}


@pytest.mark.parametrize("label", ["stacked-160-s1", "fan-200"])
def test_grid_embed_builds_no_face_map_of_the_mirror(monkeypatch, label):
    # the mirrored sequence takes its base_lr reversed from the original's,
    # so nothing reads mirror(G)'s face map
    G = fan(200) if label == "fan-200" else gen_stacked(160, 1)
    mirrors = []
    real = SheddingSequence.mirrored

    def capture(self):
        mirrors.append(real(self))
        return mirrors[-1]

    monkeypatch.setattr(SheddingSequence, "mirrored", capture)
    emb = grid_embed(G, seq_of(G))
    assert emb.mirrored and len(mirrors) == 1
    assert mirrors[0].G._third is None
