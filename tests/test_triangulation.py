from __future__ import annotations

from dataclasses import replace

import pytest

import oracles
from shedpoly.corpus import (
    gen_stacked,
    pentagon_fan,
    split_square,
    stacked_k4,
    triangle,
    two_triangles_pinched,
)
from shedpoly.triangulation import (
    InvalidTriangulation,
    NoSheddingVertex,
    NotADiagonal,
    NotBoundary,
    PlaneTriangulation,
    delete_boundary_vertex,
    deletion_trace,
    is_shedding_vertex,
    is_valid,
    link_of_boundary_vertex,
    mirror,
    shedding_sequence,
    split_by_diagonal,
    validate,
)


def sample_instances():
    yield triangle()
    yield split_square()
    yield stacked_k4()
    yield pentagon_fan()
    for n, seed in [(6, 1), (9, 2), (12, 3), (20, 4), (35, 5)]:
        yield gen_stacked(n, seed)


# -- validate -----------------------------------------------------------------


def test_validate_triangle_ok():
    assert validate(triangle()) == []


def test_validate_split_square_ok():
    assert validate(split_square()) == []


def test_validate_pinched_fails():
    bad = two_triangles_pinched()
    report = validate(bad)
    assert report, "two triangles sharing one vertex must be rejected"


def test_validate_euler_mismatch():
    # square with one triangle missing
    G = PlaneTriangulation(range(4), [(0, 1, 2)], (0, 1, 2, 3))
    codes = {v.code for v in validate(G)}
    assert codes & {"euler", "bad-boundary"}


def test_validate_bad_orientation():
    G = PlaneTriangulation(range(4), [(0, 1, 2), (0, 3, 2)], (0, 1, 2, 3))
    assert validate(G)


def test_validate_corpus_ok():
    for G in sample_instances():
        assert validate(G) == [], repr(G)


# -- links and deletion --------------------------------------------------------


def test_link_order_split_square():
    G = split_square()
    assert link_of_boundary_vertex(G, 2) == (3, 0, 1)
    assert link_of_boundary_vertex(G, 0) == (1, 2, 3)
    assert link_of_boundary_vertex(G, 3) == (0, 2)


def test_link_interior_raises():
    with pytest.raises(NotBoundary):
        link_of_boundary_vertex(stacked_k4(), 3)


def test_delete_boundary_vertex_square():
    G = split_square()
    H, link = delete_boundary_vertex(G, 3)
    assert link == (0, 2)
    assert H.vertices == (0, 1, 2)
    assert H.boundary == (0, 1, 2)
    assert is_valid(H)
    assert H.coords == {0: (1, 1), 1: (2, 1), 2: (2, 2)}


# -- shedding predicate ---------------------------------------------------------


def test_is_shedding_examples():
    assert is_shedding_vertex(stacked_k4(), 0) is True
    assert is_shedding_vertex(split_square(), 0) is False
    assert is_shedding_vertex(split_square(), 3) is True


def test_is_shedding_interior_raises():
    with pytest.raises(NotBoundary):
        is_shedding_vertex(stacked_k4(), 3)


def test_shedding_fast_equals_definitional_equals_oracle():
    for G in sample_instances():
        if G.n < 4:
            continue
        for v in G.boundary:
            fast = is_shedding_vertex(G, v)
            slow = is_valid(delete_boundary_vertex(G, v)[0])
            indep = oracles.shedding_definitional(G, v)
            assert fast == slow == indep, (repr(G), v)


def test_shedding_dichotomy():
    # every boundary vertex is shedding or an endpoint of a diagonal
    for G in sample_instances():
        if G.n < 4:
            continue
        diag_ends = {x for d in G.diagonals() for x in d}
        for v in G.boundary:
            assert is_shedding_vertex(G, v) or v in diag_ends


# -- shedding sequences ---------------------------------------------------------


def test_sequence_triangle():
    seq = shedding_sequence(triangle(), 0, 1)
    assert seq.order == (0, 1, 2)
    assert seq.degrees == (0, 1, 2)
    assert seq.base_edge == (0, 1)


def test_sequence_split_square():
    seq = shedding_sequence(split_square(), 0, 1)
    assert seq.order == (0, 1, 2, 3)
    assert seq.degrees == (0, 1, 2, 2)


def test_sequence_stacked_k4():
    # the interior vertex d=3 cannot be the last entry: it is not a boundary
    # vertex of K4, so the only sequence with base (0,1) is (0,1,3,2)
    seq = shedding_sequence(stacked_k4(), 0, 1)
    assert seq.order == (0, 1, 3, 2)
    assert oracles.is_shedding_sequence(stacked_k4(), (0, 1, 3, 2))
    assert not oracles.is_shedding_sequence(stacked_k4(), (0, 1, 2, 3))


def test_sequence_base_edge_checked():
    with pytest.raises(InvalidTriangulation):
        shedding_sequence(split_square(), 0, 2)  # diagonal, not boundary edge


def test_sequences_validate_per_oracle():
    for G in sample_instances():
        u, v = G.boundary[0], G.boundary[1]
        seq = shedding_sequence(G, u, v)
        if G.n <= 7:
            assert oracles.is_shedding_sequence(G, seq.order)


def test_sequence_deterministic():
    for G in sample_instances():
        u, v = G.boundary[0], G.boundary[1]
        assert shedding_sequence(G, u, v) == shedding_sequence(G, u, v)


def test_trace_and_prefixes():
    for G in sample_instances():
        u, v = G.boundary[0], G.boundary[1]
        seq = shedding_sequence(G, u, v)
        trace = deletion_trace(G, seq)
        assert trace.degree(3) == 2 and trace.degree(1) == 0
        for i in range(3, G.n + 1):
            # a valid disk, its boundary cycle derived from the faces
            indep = oracles.induced_disk(G, seq.order[:i])
            assert indep is not None, (repr(G), i)
            # the trace's cycle is the same up to rotation
            cyc, rim = trace.boundary(i), tuple(indep.boundary)
            k = rim.index(cyc[0])
            assert rim[k:] + rim[:k] == cyc


def test_sequence_carries_its_trace():
    for G in sample_instances():
        seq = shedding_sequence(G, G.boundary[0], G.boundary[1])
        assert seq.G is G
        assert deletion_trace(G, seq) == seq


def test_mirrored_sequence_matches_fresh_peel_of_mirror():
    for n in (10, 40, 160):
        G = gen_stacked(n, n)
        a = shedding_sequence(G, 0, 1)
        assert a.mirrored() == deletion_trace(mirror(G), a)


def test_trace_rejects_bad_sequence():
    G = stacked_k4()
    bad = shedding_sequence(G, 0, 1)
    tampered = replace(bad, order=(0, 1, 2, 3))
    with pytest.raises(InvalidTriangulation):
        deletion_trace(G, tampered)


# -- diagonals and regions -------------------------------------------------------


def test_split_by_diagonal_square():
    G = split_square()
    sides = split_by_diagonal(G, (0, 2))
    assert set(map(frozenset, sides)) == {frozenset({1}), frozenset({3})}


def test_find_shedding_not_a_diagonal():
    # a boundary edge, and an edge to an interior vertex
    with pytest.raises(NotADiagonal):
        split_by_diagonal(split_square(), (0, 1))
    with pytest.raises(NotADiagonal):
        split_by_diagonal(stacked_k4(), (0, 3))


def test_no_shedding_vertex_error_exists():
    # NoSheddingVertex is part of the contract; it must never fire on valid
    # input, which the corpus tests exercise -- here we just check the type.
    assert issubclass(NoSheddingVertex, InvalidTriangulation)


def test_mirror_involution():
    G = split_square()
    M = mirror(mirror(G))
    assert M.triangles == G.triangles
    assert M.boundary == G.boundary
    assert validate(mirror(G)) == []
