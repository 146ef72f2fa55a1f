"""Depth profiles, exhaustive minima, grid generation, and the staged schedule."""

from __future__ import annotations

import hashlib

import networkx as nx
import pytest

import oracles
from shedpoly.corpus import gen_stacked
from shedpoly.griddiam import (
    BadParams,
    GridTriangulation,
    TooLarge,
    gen_grid_triangulation,
    grid_shedding,
    min_tau_exhaustive,
    tau_profile,
    uniform_grid_triangulation,
)
from shedpoly.triangulation import (
    PlaneTriangulation,
    deletion_trace,
    edge_key,
    mirror,
    shedding_sequence,
    validate,
)
from shapes import pentagon_fan, split_square, stacked_k4, triangle


def seq_of(G, u=0, v=1):
    return shedding_sequence(G, u, v)


def test_tau_profile_examples():
    G = triangle()
    prof = tau_profile(G, seq_of(G))
    assert prof.depth == {0: 1, 1: 2, 2: 3}
    assert prof.tau == 3

    G = split_square()
    prof = tau_profile(G, seq_of(G))  # order (0,1,2,3)
    assert prof.depth[3] == 4 and prof.tau == 4

    G = stacked_k4()
    prof = tau_profile(G, seq_of(G))  # order (0,1,3,2)
    assert prof.tau == 4


def test_tau_profile_levels_are_depth_classes():
    G = gen_stacked(12, 3)
    prof = tau_profile(G, seq_of(G))
    levels = oracles.levels(prof)
    assert sum(len(s) for s in levels) == G.n
    assert len(levels) == prof.tau
    for d, group in enumerate(levels, start=1):
        assert all(prof.depth[v] == d for v in group)


def test_tau_matches_longest_path_oracle():
    cases = [triangle(), split_square(), stacked_k4(), pentagon_fan()]
    cases += [gen_stacked(n, s) for n, s in ((6, 1), (9, 2), (14, 3), (30, 4))]
    for G in cases:
        a = seq_of(G)
        assert tau_profile(G, a).tau == oracles.tau_by_longest_path(G, a.order)


def test_min_tau_small_values():
    assert min_tau_exhaustive(triangle())[0] == 3
    assert min_tau_exhaustive(split_square())[0] == 4
    assert min_tau_exhaustive(stacked_k4())[0] == 4


def test_min_tau_matches_brute_oracle():
    for G in (triangle(), split_square(), stacked_k4(), pentagon_fan(), gen_stacked(6, 1), gen_stacked(7, 5)):
        got, witness = min_tau_exhaustive(G)
        assert got == oracles.min_tau_brute(G)
        # witness is a real shedding sequence achieving the reported depth
        deletion_trace(G, witness)
        assert tau_profile(G, witness).tau == got


def test_min_tau_below_greedy():
    for G in (split_square(), stacked_k4(), pentagon_fan(), gen_stacked(8, 2), gen_stacked(9, 7)):
        a = seq_of(G)
        assert min_tau_exhaustive(G)[0] <= tau_profile(G, a).tau


def test_min_tau_too_large():
    with pytest.raises(TooLarge):
        min_tau_exhaustive(gen_stacked(10, 1))


def test_min_tau_deterministic_witness():
    w1 = min_tau_exhaustive(split_square())[1]
    w2 = min_tau_exhaustive(split_square())[1]
    assert w1 == w2


# -- grid generation -------------------------------------------------------------


def test_gen_grid_smallest():
    gt = gen_grid_triangulation(2, 2, 2, seed=0)
    assert not validate(gt.T)
    assert gt.T.n == 4
    # the single cell 0,1,3,2 (ccw) splits along one of its two diagonals
    assert gt.T.triangles in (
        ((0, 1, 3), (0, 3, 2)),
        ((0, 1, 2), (1, 3, 2)),
    )


def test_gen_grid_valid_and_edge_bounds():
    for p, q, ell, seed in ((5, 4, 3, 7), (6, 6, 2, 1), (4, 7, 4, 3), (12, 12, 3, 5)):
        gt = gen_grid_triangulation(p, q, ell, seed)
        assert not validate(gt.T)
        assert gt.T.n == p * q
        for u, v in oracles.edges(gt.T):
            ux, uy = gt.xy(u)
            vx, vy = gt.xy(v)
            assert abs(ux - vx) <= ell - 1 and abs(uy - vy) <= ell - 1
        assert gt.T.coords[gt.vid(3, 2)] == (3, 2)


def test_gen_grid_flips_inject_long_edges():
    long_seen = False
    for seed in range(10):
        gt = gen_grid_triangulation(6, 6, 3, seed)
        for u, v in oracles.edges(gt.T):
            ux, uy = gt.xy(u)
            vx, vy = gt.xy(v)
            if max(abs(ux - vx), abs(uy - vy)) == 2:
                long_seen = True
    assert long_seen


def test_gen_grid_deterministic():
    a = gen_grid_triangulation(7, 5, 3, seed=11)
    b = gen_grid_triangulation(7, 5, 3, seed=11)
    assert a.T.triangles == b.T.triangles
    assert a.T.boundary == b.T.boundary


def test_gen_grid_bad_params():
    with pytest.raises(BadParams):
        gen_grid_triangulation(5, 5, 1, seed=0)
    with pytest.raises(BadParams):
        gen_grid_triangulation(5, 3, 4, seed=0)
    with pytest.raises(BadParams):
        uniform_grid_triangulation(1, 5)


# (p, q, ell, seed): ell = 2 draws the cell diagonals only, ell > 2 flips too
REFERENCE_CASES = [
    (p, q, ell, seed)
    for p in range(4, 12)
    for q in (p, p + 2)
    for ell in (2, 3, 4)
    for seed in range(3)
]


def test_gen_grid_matches_the_reference_generator():
    # flipping at the drawn rank, with the face map as the only record of the
    # faces, must draw the same numbers and so build the same triangulation
    assert len(REFERENCE_CASES) == 144
    for p, q, ell, seed in REFERENCE_CASES:
        got = gen_grid_triangulation(p, q, ell, seed).T
        want = oracles.gen_grid_triangulation_reference(p, q, ell, seed).T
        assert got.triangles == want.triangles, (p, q, ell, seed)
        assert got.boundary == want.boundary, (p, q, ell, seed)
        assert got.coords == want.coords, (p, q, ell, seed)


def test_uniform_grid():
    gt = uniform_grid_triangulation(4, 3)
    assert not validate(gt.T)
    assert gt.T.n == 12
    assert len(gt.T.triangles) == 2 * 3 * 2


# -- the staged schedule ----------------------------------------------------------


def check_plan(gt, plan):
    T = gt.T
    # the sequence is a genuine shedding sequence (prefix checks included)
    deletion_trace(T, plan.sequence)
    assert plan.tau == tau_profile(T, plan.sequence).tau
    assert plan.tau == oracles.tau_by_longest_path(T, plan.sequence.order)
    assert plan.tau <= plan.tau_bound == 6 * gt.ell * (gt.p + gt.q)
    assert len(plan.antichains) <= plan.antichain_bound == gt.ell * (2 * gt.p + 6 * gt.q)
    # batches partition everything after the base triple
    scattered = [v for batch in plan.antichains for v in batch]
    assert sorted(scattered) == sorted(plan.sequence.order[3:])
    # batches are antichains of the precedence dag: no member precedes another
    pos = {v: i for i, v in enumerate(plan.sequence.order)}
    dag = nx.DiGraph()
    dag.add_nodes_from(T.vertices)
    for u, v in oracles.edges(T):
        dag.add_edge(u, v) if pos[u] < pos[v] else dag.add_edge(v, u)
    for batch in plan.antichains:
        for v in batch:
            reach = nx.descendants(dag, v)
            assert not (reach & batch - {v})
    # stage labels: 0 on the base triple, then non-increasing along the order
    labels = [plan.stage[v] for v in plan.sequence.order]
    assert labels[:3] == [0, 0, 0]
    assert all(la >= lb for la, lb in zip(labels[3:], labels[4:]))
    assert set(labels[3:]) <= {1, 2, 3}


def test_grid_shedding_uniform_4x4():
    gt = uniform_grid_triangulation(4, 4)
    plan = grid_shedding(gt)
    check_plan(gt, plan)
    assert plan.antichain_bound == 2 * (2 * 4 + 6 * 4) == 64
    assert plan.tau_bound == 6 * 2 * 8 == 96


def test_grid_shedding_5x5_ell3():
    gt = gen_grid_triangulation(5, 5, 3, seed=7)
    plan = grid_shedding(gt)
    check_plan(gt, plan)
    assert plan.tau_bound == 180
    assert plan.antichain_bound == 120


def test_grid_shedding_assorted():
    # 14x7 and 10x6 (l = 4): a stage-1 block whose greatest admissible
    # vertex lies on row l, with no admissible side, sits out the round
    grids = ((2, 2, 2, 0), (3, 6, 2, 4), (6, 3, 3, 9), (10, 4, 2, 2), (8, 8, 3, 13))
    for p, q, ell, seed in grids + ((14, 7, 4, 72), (10, 6, 4, 35)):
        gt = gen_grid_triangulation(p, q, ell, seed)
        plan = grid_shedding(gt)
        check_plan(gt, plan)


def test_grid_shedding_deterministic():
    gt = gen_grid_triangulation(6, 5, 3, seed=3)
    p1 = grid_shedding(gt)
    p2 = grid_shedding(gt)
    assert p1.sequence == p2.sequence
    assert p1.antichains == p2.antichains


# sha256 prefixes of every field of grid_shedding(gen_grid_triangulation(p, p,
# l, seed=p)), taken from the copy-on-delete peel before the mutable engine
# replaced it: the engine must reproduce each plan exactly.
PINNED_PLANS = {
    "5x5-l2": "5efe5ad37295a3fd",
    "5x5-l3": "3e677ed382141e64",
    "6x6-l2": "682b9d6a73aad2f6",
    "6x6-l3": "7935dee1d04e1441",
    "7x7-l2": "8c7c7cb8b0eee9e9",
    "7x7-l3": "02002ef23cb70c94",
    "8x8-l2": "4119bfe92e8fd3cb",
    "8x8-l3": "6d4582fcef192ff7",
    "9x9-l2": "b41eea85c2ec392c",
    "9x9-l3": "b0527f26e2923d9e",
    "10x10-l2": "92300d616b2e0fca",
    "10x10-l3": "f1d3793026a0757e",
    "11x11-l2": "85390c15edc13f63",
    "11x11-l3": "a6bf34b1b2f52b48",
    "12x12-l2": "3cc8f3e6b678d298",
    "12x12-l3": "b7e959691eb9d24a",
}


def plan_digest(plan) -> str:
    a = plan.sequence
    key = (
        a.order,
        a.links,
        tuple(a.boundary(i) for i in range(3, a.n + 1)),
        tuple(tuple(sorted(b)) for b in plan.antichains),
        tuple(sorted(plan.stage.items())),
        plan.tau,
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def test_grid_shedding_plans_match_the_copy_on_delete_peel():
    for label, want in PINNED_PLANS.items():
        p, ell = int(label.split("x")[0]), int(label[-1])
        gt = gen_grid_triangulation(p, p, ell, seed=p)
        plan = grid_shedding(gt)
        assert plan_digest(plan) == want, label
        assert plan.sequence == oracles.peel_order_reference(gt.T, plan.sequence.order)


def test_grid_shedding_snapshots_only_the_final_triangle(monkeypatch):
    # the carve regions come from the engine itself; the one snapshot left is
    # sequence()'s check that G_3 is a triangle (one per carve before that:
    # 119 on this grid)
    import shedpoly.triangulation as tri

    calls = [0]
    real = tri.PeelEngine.snapshot

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(tri.PeelEngine, "snapshot", counting)
    grid_shedding(gen_grid_triangulation(32, 32, 3, seed=1))
    assert calls[0] == 1


def test_grid_shedding_chord_floods_stop_at_the_first_inadmissible_vertex(monkeypatch):
    # every vertex a chord flood pops reads its neighbour set once; floods
    # that cover each whole side pop 63,138 vertices on this grid
    import shedpoly.triangulation as tri

    popped = [0]
    real = tri.PeelEngine.chord_sides

    class CountedReads(dict):
        def __getitem__(self, x):
            popped[0] += 1
            return dict.__getitem__(self, x)

    def counting(self, *args):
        nbrs = self.nbrs
        self.nbrs = CountedReads(nbrs)
        try:
            return real(self, *args)
        finally:
            self.nbrs = nbrs

    monkeypatch.setattr(tri.PeelEngine, "chord_sides", counting)
    grid_shedding(gen_grid_triangulation(32, 32, 3, seed=1))
    assert 0 < popped[0] <= 10_000, popped[0]


def test_grid_shedding_refuses_a_disk_that_is_not_its_lattice():
    T = uniform_grid_triangulation(4, 4).T
    # swapping the ids of two interior points folds the faces around them
    swap = {5: 6, 6: 5}
    folded = PlaneTriangulation(
        T.vertices, [tuple(swap.get(v, v) for v in t) for t in T.triangles], T.boundary
    )
    assert not validate(folded)
    cases = [
        (GridTriangulation(4, 4, 4, folded), "is not ccw on the lattice"),
        (GridTriangulation(4, 4, 2, gen_grid_triangulation(4, 4, 4, 0).T), "outside every 2x2"),
        (GridTriangulation(4, 4, 2, mirror(T)), "boundary is not the 4x4 rectangle"),
        (GridTriangulation(2, 8, 2, T), "boundary is not the 2x8 rectangle"),
        (GridTriangulation(4, 4, 5, T), "got ell=5, p=4, q=4"),
        (GridTriangulation(5, 3, 2, T), "row-major ids"),
    ]
    for gt, text in cases:
        with pytest.raises(BadParams, match=text):
            grid_shedding(gt)


def test_grid_dimension_bounds_formula():
    w, h, z = oracles.grid_dimension_bounds(5, 5, 3)
    n = 25
    assert w == 4 * n**3
    assert h == 8 * n**5
    assert z == (500 * n**8) ** (6 * 3 * (5 + 5))
