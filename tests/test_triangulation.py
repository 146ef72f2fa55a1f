from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    NotBoundary,
    delete_boundary_vertex,
    is_shedding_vertex,
    link_of_boundary_vertex,
)
from shedpoly.corpus import gen_stacked
from shedpoly.griddiam import gen_grid_triangulation, uniform_grid_triangulation
from shedpoly.triangulation import (
    InvalidTriangulation,
    NoSheddingVertex,
    PeelEngine,
    PlaneTriangulation,
    SheddingSequence,
    Violation,
    deletion_trace,
    mirror,
    peel_order,
    shedding_sequence,
    validate,
)
from shapes import pentagon_fan, split_square, stacked_k4, triangle, two_triangles_pinched


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


def test_validate_returns_equal_lists_on_every_call():
    # the verdict is cached on the instance: later calls must return an equal
    # list, and a caller editing the list it got must not change the next one
    for G in (
        two_triangles_pinched(),
        PlaneTriangulation(range(4), [(0, 1, 2)], (0, 1, 2, 3)),
        PlaneTriangulation(range(4), [(0, 1, 2), (0, 3, 2)], (0, 1, 2, 3)),
    ):
        first = validate(G)
        assert first
        first.append("edited")
        assert validate(G) == first[:-1] == validate(G)


def test_validate_corpus_ok():
    for G in sample_instances():
        assert validate(G) == [], repr(G)


# -- links and deletion --------------------------------------------------------


def test_link_order_split_square():
    G = split_square()
    assert link_of_boundary_vertex(G, 2) == (3, 0, 1)
    assert link_of_boundary_vertex(G, 0) == (1, 2, 3)
    assert link_of_boundary_vertex(G, 3) == (0, 2)
    assert [PeelEngine(G).link(v) for v in (2, 0, 3)] == [(3, 0, 1), (1, 2, 3), (0, 2)]


def test_link_interior_raises():
    with pytest.raises(NotBoundary):
        link_of_boundary_vertex(stacked_k4(), 3)


def test_delete_boundary_vertex_square():
    G = split_square()
    H, link = delete_boundary_vertex(G, 3)
    assert link == (0, 2)
    assert H.vertices == (0, 1, 2)
    assert H.boundary == (0, 1, 2)
    assert not validate(H)
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
        engine = PeelEngine(G)
        for v in G.boundary:
            fast = is_shedding_vertex(G, v)
            slow = not validate(delete_boundary_vertex(G, v)[0])
            indep = oracles.shedding_definitional(G, v)
            assert engine.is_shedding(v) == fast == slow == indep, (repr(G), v)


def test_shedding_dichotomy():
    # every boundary vertex is shedding or an endpoint of a diagonal
    for G in sample_instances():
        if G.n < 4:
            continue
        diag_ends = {x for d in oracles.diagonals(G) for x in d}
        for v in G.boundary:
            assert is_shedding_vertex(G, v) or v in diag_ends


# -- shedding sequences ---------------------------------------------------------


def test_sequence_triangle():
    seq = shedding_sequence(triangle(), 0, 1)
    assert seq.order == (0, 1, 2)
    assert seq.degrees == (0, 1, 2)
    assert seq.order[:2] == (0, 1)


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
        assert trace.degrees[2] == 2 and trace.degrees[0] == 0
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


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder", "polygon", "grid")),
    size=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    edge=st.integers(0, 10**6),
    flip=st.booleans(),
)
def test_mirrored_sequence_hands_over_the_base_a_fresh_one_derives(shape, size, seed, edge, flip):
    if shape == "grid":
        G = gen_grid_triangulation(6, 6, 2 + seed % 2, seed).T
    else:
        G = base_disk(shape, size, seed)
    b = G.boundary
    u, v = b[edge % len(b)], b[(edge + 1) % len(b)]
    if flip:
        u, v = v, u
    a = shedding_sequence(G, u, v)
    w = a.mirrored()
    assert w.base_lr == a.base_lr[::-1] and w.G._third is None
    assert w.base_lr == SheddingSequence(mirror(G), w.order, w.links).base_lr


def test_trace_rejects_bad_sequence():
    G = stacked_k4()
    bad = shedding_sequence(G, 0, 1)
    tampered = replace(bad, order=(0, 1, 2, 3))
    with pytest.raises(InvalidTriangulation):
        deletion_trace(G, tampered)


# -- diagonals and regions -------------------------------------------------------


def test_split_by_diagonal_square():
    G = split_square()
    sides = oracles.split_by_diagonal(G, (0, 2))
    assert set(map(frozenset, sides)) == {frozenset({1}), frozenset({3})}


def test_find_shedding_not_a_diagonal():
    # a boundary edge, and an edge to an interior vertex
    with pytest.raises(oracles.NotADiagonal):
        oracles.split_by_diagonal(split_square(), (0, 1))
    with pytest.raises(oracles.NotADiagonal):
        oracles.split_by_diagonal(stacked_k4(), (0, 3))


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


# -- the peel engine against the copy-on-delete reference -------------------------


def ladder(k):
    """The k x 2 lattice strip with one-way diagonals (n = 2k)."""
    return uniform_grid_triangulation(k, 2).T


def fan(n):
    """Apex 0 over the path 1..n-1: every vertex on the boundary."""
    return PlaneTriangulation(range(n), [(0, i, i + 1) for i in range(1, n - 1)], range(n))


def polygon_disk(b, k, seed):
    """A random triangulation of a convex b-gon (boundary 0..b-1) with k
    vertices stacked into random faces."""
    rng = random.Random(seed)
    faces = []
    pending = [list(range(b))]
    while pending:
        poly = pending.pop()
        j = rng.randrange(1, len(poly) - 1)
        faces.append((poly[0], poly[j], poly[-1]))
        if j >= 2:
            pending.append(poly[: j + 1])
        if len(poly) - j >= 3:
            pending.append(poly[j:])
    for x in range(b, b + k):
        a, c, d = faces.pop(rng.randrange(len(faces)))
        faces += [(a, c, x), (c, d, x), (d, a, x)]
    return PlaneTriangulation(range(b + k), faces, range(b))


def relabel(G, seed):
    """G with its ids sent to random distinct ids below 10n (not dense)."""
    ids = random.Random(seed).sample(range(10 * G.n), G.n)
    return PlaneTriangulation(
        (ids[v] for v in G.vertices),
        [tuple(ids[v] for v in t) for t in G.triangles],
        [ids[v] for v in G.boundary],
    )


def assert_engine_matches_reference(G, u, v, bad_orders=()):
    """Greedy and fixed-order peels equal the copy-on-delete Peel's (order,
    links, cycles), and each bad order fails with the same type and text."""
    a = shedding_sequence(G, u, v)
    assert a == oracles.shedding_sequence_reference(G, u, v)
    assert peel_order(G, a.order) == oracles.peel_order_reference(G, a.order) == a
    for order in bad_orders:
        outcomes = []
        for peel in (peel_order, oracles.peel_order_reference):
            try:
                outcomes.append(peel(G, order))
            except InvalidTriangulation as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], order


def test_engine_matches_reference_on_sample_instances_and_every_base_edge():
    for G in list(sample_instances()) + [fan(12), ladder(6), polygon_disk(9, 7, 1)]:
        b = G.boundary
        for j in range(len(b)):
            for u, v in ((b[j], b[j - 1]), (b[j - 1], b[j])):
                assert_engine_matches_reference(G, u, v)


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder", "polygon")),
    size=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    edge=st.integers(0, 10**6),
    flip=st.booleans(),
    sparse=st.booleans(),
    swaps=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=4),
)
def test_engine_matches_reference_on_random_disks(shape, size, seed, edge, flip, sparse, swaps):
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
    if flip:
        u, v = v, u
    order = list(shedding_sequence(G, u, v).order)
    bad = []
    for x, y in swaps:
        order[x % G.n], order[y % G.n] = order[y % G.n], order[x % G.n]
        bad.append(tuple(order))
    bad.append(tuple(order[:-1]))
    assert_engine_matches_reference(G, u, v, bad)


def test_a_peel_keeps_links_not_a_copy_of_every_prefix_boundary():
    # every vertex of a fan is on the boundary, so copies of the prefix
    # cycles would hold sum b_i = 4.5M entries here, about 35 MiB; the
    # links hold 2 or 3 entries per vertex
    G = fan(3000)
    order = shedding_sequence(G, 0, 1).order  # builds G's cached maps first
    tracemalloc.start()
    try:
        a = peel_order(G, order)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.order == order
    assert retained < 4 * 2**20, retained


# -- chord sides against the face-dual split ---------------------------------------


def peel_part_way(G, steps, seed):
    """A peel engine on G after up to ``steps`` deletions, each of a random
    shedding vertex of the current prefix."""
    rng = random.Random(seed)
    peel = PeelEngine(G)
    for _ in range(steps):
        cands = sorted(x for x in peel.succ if peel.is_shedding(x))
        if not cands:
            break
        peel.delete(rng.choice(cands))
    return peel


def everywhere(w) -> bool:
    """The chord_sides predicate under which both sides come back full."""
    return True


def assert_chord_sides_match_the_dual_split(peel, bad=None) -> int:
    """Every diagonal of the current prefix splits the same way under the
    engine's vertex flood and the oracle's face flood; returns how many
    diagonals there were.

    With a set ``bad`` of inadmissible vertices, the flood under the
    predicate "not in bad" must also return each side that avoids bad as
    the full dual-split side, and every other side as None."""
    H = peel.snapshot()
    diags = oracles.diagonals(H)
    for u, v in diags:
        left, right = oracles.split_by_diagonal(H, (u, v))
        # the left of u -> v is bounded by the arc v, succ(v), ..., pred(u)
        assert peel.chord_sides(u, v, everywhere) == (right, left), (u, v)
        assert peel.chord_sides(v, u, everywhere) == (left, right), (u, v)
        if bad is not None:
            left, right = (None if side & bad else side for side in (left, right))
            assert peel.chord_sides(u, v, lambda w: w not in bad) == (right, left), (u, v)
            assert peel.chord_sides(v, u, lambda w: w not in bad) == (left, right), (u, v)
    return len(diags)


def test_chord_sides_square_and_part_way_peels():
    peel = PeelEngine(split_square())
    assert peel.chord_sides(0, 2, everywhere) == ({1}, {3})
    assert peel.chord_sides(2, 0, everywhere) == ({3}, {1})
    seen = 0
    for G in (gen_grid_triangulation(12, 12, 3, 0).T, gen_stacked(60, 4), polygon_disk(12, 20, 3)):
        for steps in (0, G.n // 4, G.n // 2, G.n - 4):
            peel = peel_part_way(G, steps, steps)
            bad = frozenset(sorted(peel.vertices)[steps % 7 :: 11])
            seen += assert_chord_sides_match_the_dual_split(peel, bad)
    assert seen > 100


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(5, 16),
    q=st.integers(5, 16),
    ell=st.integers(2, 4),
    seed=st.integers(0, 10**6),
    percent=st.integers(0, 100),
)
def test_chord_sides_match_the_dual_split_on_grids(p, q, ell, seed, percent):
    G = gen_grid_triangulation(p, q, ell, seed).T
    peel = peel_part_way(G, percent * (G.n - 3) // 100, seed)
    assert_chord_sides_match_the_dual_split(peel)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 120),
    seed=st.integers(0, 10**6),
    percent=st.integers(0, 100),
)
def test_chord_sides_match_the_dual_split_on_stacked_disks(n, seed, percent):
    G = gen_stacked(n, seed)
    peel = peel_part_way(G, percent * (G.n - 3) // 100, seed)
    assert_chord_sides_match_the_dual_split(peel)


@settings(max_examples=60, deadline=None)
@given(
    grid=st.booleans(),
    n=st.integers(5, 14),
    seed=st.integers(0, 10**6),
    percent=st.integers(0, 100),
    nbad=st.integers(0, 4),
)
def test_chord_sides_under_a_predicate_drop_exactly_the_rejected_sides(
    grid, n, seed, percent, nbad
):
    # a side comes back whole when all its vertices pass, else as None
    G = gen_grid_triangulation(n, n, 3, seed).T if grid else gen_stacked(8 * n, seed)
    peel = peel_part_way(G, percent * (G.n - 3) // 100, seed)
    live = sorted(peel.vertices)
    bad = frozenset(random.Random(seed).sample(live, min(nbad, len(live))))
    assert_chord_sides_match_the_dual_split(peel, bad)


# -- work counts: a peel is linear in n -------------------------------------------


def test_greedy_peel_work_grows_linearly(monkeypatch):
    """Doubling n at most about doubles the shedding tests and the link
    walks of the greedy peel (a full boundary rescan per step grows 4x)."""
    tests, walked = [0], [0]
    is_shedding, link = PeelEngine.is_shedding, PeelEngine.link

    def counted_test(self, x):
        tests[0] += 1
        return is_shedding(self, x)

    def counted_link(self, v):
        out = link(self, v)
        walked[0] += len(out)
        return out

    monkeypatch.setattr(PeelEngine, "is_shedding", counted_test)
    monkeypatch.setattr(PeelEngine, "link", counted_link)

    def work(G):
        tests[0] = walked[0] = 0
        shedding_sequence(G, G.boundary[0], G.boundary[1])
        return tests[0], walked[0]

    for small, large in ((fan(1100), fan(2200)), (gen_stacked(500, 0), gen_stacked(1000, 0))):
        (t1, w1), (t2, w2) = work(small), work(large)
        assert t2 <= 2.5 * t1 and w2 <= 2.5 * w1, (small, t1, t2, w1, w2)


# -- validate against the reference, and the maps it leaves behind -----------------


def torus7(ids):
    """The 7-vertex torus, on ids[0..6]: a closed, oriented surface with
    #t = 2n and #e = 3n, so adding it on fresh ids keeps #t = 2n - b - 2."""
    return [tuple(ids[(i + d) % 7] for d in f) for i in range(7) for f in ((0, 1, 3), (0, 3, 2))]


def tetrahedron(ids):
    """The boundary of a tetrahedron on ids[0..3], oriented."""
    a, b, c, d = ids
    return [(a, b, c), (a, c, d), (a, d, b), (b, d, c)]


MUTATIONS = (
    "drop", "duplicate", "reverse", "relabel", "rotate-boundary", "reverse-boundary",
    "disjoint-triangle", "closed-tetrahedron", "closed-torus", "pinch",
)


def mutate(G, kind, r):
    """G with one defect of the given kind, placed by the random source r:
    a triangle dropped, duplicated, reversed or with one corner relabelled
    (possibly to an id outside the disk); the boundary rotated or reversed;
    a disjoint triangle or a closed surface added on fresh ids; or a
    tetrahedron and a 7-vertex torus each glued at one vertex of G, which
    pinches their fans at those vertices while keeping #t = 2n - b - 2."""
    verts, tris, cyc = list(G.vertices), list(G.triangles), list(G.boundary)
    fresh = list(range(max(verts) + 1, max(verts) + 10))
    if not tris and kind in MUTATIONS[:4]:
        return G
    j = r.randrange(len(tris)) if tris else 0
    if kind == "drop":
        del tris[j]
    elif kind == "duplicate":
        tris.insert(r.randrange(len(tris) + 1), tris[j][1:] + tris[j][:1])
    elif kind == "reverse":
        a, b, c = tris[j]
        tris[j] = (a, c, b)
    elif kind == "relabel":
        t = list(tris[j])
        t[r.randrange(3)] = r.choice(verts + fresh[:1])
        tris[j] = tuple(t)
    elif kind == "rotate-boundary":
        k = r.randrange(len(cyc))
        cyc = cyc[k:] + cyc[:k]
    elif kind == "reverse-boundary":
        cyc.reverse()
    elif kind == "disjoint-triangle":
        verts += fresh[:3]
        tris.append(tuple(fresh[:3]))
    elif kind == "closed-tetrahedron":
        verts += fresh[:4]
        tris += tetrahedron(fresh[:4])
    elif kind == "closed-torus":
        verts += fresh[:7]
        tris += torus7(fresh[:7])
    else:
        # sphere glued at v (chi + 1) and torus glued at u (chi - 1)
        v, u = r.choice(verts), r.choice(verts)
        verts += fresh
        tris += tetrahedron([v] + fresh[:3]) + torus7([u] + fresh[3:])
    return PlaneTriangulation(verts, tris, cyc)


def base_disk(shape, size, seed):
    if shape == "stacked":
        return gen_stacked(size, seed)
    if shape == "fan":
        return fan(size)
    if shape == "ladder":
        return ladder(max(2, size // 2))
    b = 3 + seed % (size - 2)
    return relabel(polygon_disk(b, size - b, seed), seed)


def assert_validate_matches_reference(G):
    got = validate(G)
    assert got == oracles.validate_reference(G), G
    assert all(type(v) is Violation for v in got)
    return got


def test_validate_matches_the_reference_on_every_mutation():
    # each mutation on each disk, several placements; the corpus as a whole
    # must reach every check that a triangle list with distinct ids can fail
    codes = set()
    for shape in ("stacked", "fan", "ladder", "polygon"):
        for size in (3, 4, 9, 24):
            G = base_disk(shape, size, size)
            assert assert_validate_matches_reference(G) == []
            for kind in MUTATIONS:
                for seed in range(4):
                    H = mutate(G, kind, random.Random(seed))
                    codes.update(v.code for v in assert_validate_matches_reference(H))
    for H in (
        two_triangles_pinched(),
        PlaneTriangulation(range(2), [], (0, 1)),
        PlaneTriangulation([0, 0, 1, 2], [(0, 1, 2)], (0, 1, 2)),
        PlaneTriangulation(range(3), [(0, 1, 2)], (0, 1, 2), {0: (0, 0), 1: (1, 0)}),
    ):
        codes.update(v.code for v in assert_validate_matches_reference(H))
    assert codes == {
        "bad-vertices", "too-small", "bad-face", "orientation", "bad-boundary",
        "open-edge", "euler", "pinched-vertex", "disconnected", "bad-coords",
    }


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder", "polygon")),
    size=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    kinds=st.lists(st.sampled_from(MUTATIONS), max_size=2),
)
def test_validate_matches_the_reference_on_random_disks_and_mutations(shape, size, seed, kinds):
    G = base_disk(shape, size, seed)
    r = random.Random(seed)
    for kind in kinds:
        G = mutate(G, kind, r)
    assert_validate_matches_reference(G)


def test_validate_leaves_the_face_map_that_the_peel_engine_copies():
    G = gen_stacked(40, 3)
    assert G._third is None and G._adj is None
    assert validate(G) == []
    third, adj = G._third, G._adj
    assert third is not None and adj is not None
    engine = PeelEngine(G)
    assert G._third is third and G._adj is adj
    assert engine.third == third and engine.third is not third
