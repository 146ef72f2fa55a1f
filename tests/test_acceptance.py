"""Acceptance gate: the seven headline guarantees, one test per criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion, plus one
line for the full-boundary audit oracle over the same corpus.  Everything
here is exact integer or rational arithmetic -- zero tolerance: a bound that
misses by one is a failure.  The corpus mixes hand instances, random stacked
triangulations up to n = 200, and random lattice-grid triangulations up to
12 x 12 with both edge-span limits.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import comb
from time import perf_counter
from typing import Optional

import pytest

import oracles
from shedpoly import embedding
from shedpoly.cli import entry
from shedpoly.corpus import gen_stacked
from shedpoly.embedding import GridEmbedding, grid_embed
from shedpoly.exactgeom import Point2, Point3
from shedpoly.griddiam import (
    SheddingPlan,
    gen_grid_triangulation,
    grid_shedding,
    min_tau_exhaustive,
    tau_profile,
)
from shedpoly.lifting import LiftedPolyhedron, height_bound, lift
from shedpoly.triangulation import (
    PeelEngine,
    PlaneTriangulation,
    SheddingSequence,
    deletion_trace,
    shedding_sequence,
)
from shedpoly.verify import (
    check_face_isomorphic,
    check_grid_bounds,
    check_lift_convex,
    check_projectively_convex,
    lift_convex_globally,
)
from shapes import pentagon_fan, split_square, stacked_k4, triangle

STACKED_NS = (4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 18, 24, 32, 45, 64, 90, 128, 180)
STACKED_SEEDS = range(6)
BIG_STACKED = tuple((200, s) for s in range(4))
GRID_PAIRS = (
    (2, 2), (2, 4), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5),
    (6, 3), (6, 6), (7, 4), (7, 7), (8, 5), (8, 8), (9, 6), (9, 9),
    (10, 7), (10, 10), (11, 8), (11, 11), (12, 9), (12, 12),
)
GRID_SEEDS = (0, 1)
EXTRA_GRIDS = ((5, 5, 3, 7), (5, 5, 3, 2), (12, 12, 3, 2))


@dataclass
class Item:
    label: str
    G: PlaneTriangulation
    a: SheddingSequence
    emb: GridEmbedding
    P: LiftedPolyhedron
    trace: SheddingSequence
    grid: Optional[tuple[int, int, int]] = None
    plan: Optional[SheddingPlan] = None


def _build(label, G, a, grid=None, plan=None) -> Item:
    emb = grid_embed(G, a)
    return Item(label, G, a, emb, lift(emb, a), deletion_trace(G, a), grid, plan)


@cache
def corpus() -> tuple[Item, ...]:
    items: list[Item] = []

    def greedy(G):
        return shedding_sequence(G, G.boundary[0], G.boundary[1])

    for name, G in (
        ("triangle", triangle()),
        ("square", split_square()),
        ("k4", stacked_k4()),
        ("fan5", pentagon_fan()),
    ):
        items.append(_build(f"hand-{name}", G, greedy(G)))
    for seed in STACKED_SEEDS:
        for n in STACKED_NS:
            G = gen_stacked(n, seed)
            items.append(_build(f"stacked-{n}-s{seed}", G, greedy(G)))
    for n, seed in BIG_STACKED:
        G = gen_stacked(n, seed)
        items.append(_build(f"stacked-{n}-s{seed}", G, greedy(G)))

    combos = [
        (p, q, ell, seed)
        for p, q in GRID_PAIRS
        for ell in ((2, 3) if min(p, q) >= 3 else (2,))
        for seed in GRID_SEEDS
    ]
    combos.extend(EXTRA_GRIDS)
    for p, q, ell, seed in combos:
        gt = gen_grid_triangulation(p, q, ell, seed)
        plan = grid_shedding(gt)
        items.append(
            _build(f"grid-{p}x{q}-l{ell}-s{seed}", gt.T, plan.sequence, (p, q, ell), plan)
        )
    return tuple(items)


def certify_stepwise(item: Item) -> None:
    """Face isomorphism and projective convexity of every drawn prefix."""
    emb, trace = item.emb, item.trace
    a1, a2 = item.a.order[0], item.a.order[1]
    base = (emb.coords[a1], emb.coords[a2])
    for i in range(3, item.G.n + 1):
        Gi = oracles.induced_disk(item.G, item.a.order[:i])
        sub = {v: emb.coords[v] for v in Gi.vertices}
        cert = check_face_isomorphic(Gi, sub)
        assert cert.passed, f"{item.label} prefix {i}: {cert.detail}"
        chain = [emb.coords[v] for v in trace.boundary(i)]
        cert = check_projectively_convex(chain, base)
        assert cert.passed, f"{item.label} prefix {i}: {cert.detail}"


def test_criterion_1_corpus_fits_integer_grid_with_stepwise_certificates():
    items = corpus()
    assert len(items) >= 200
    for item in items:
        n = item.G.n
        start = perf_counter()
        emb = grid_embed(item.G, item.a) if n >= 200 else item.emb
        assert emb.width <= 4 * n**3, item.label
        assert emb.height <= 8 * n**5, item.label
        assert check_grid_bounds(emb.coords, n).passed, item.label
        certify_stepwise(item)
        if n >= 200:
            elapsed = perf_counter() - start
            assert elapsed < 10.0, f"{item.label}: {elapsed:.2f}s"


def test_full_audit_oracle_passes_every_corpus_prefix():
    # grid_embed audits each step incrementally; the oracle rescans every
    # boundary edge and the whole upper chain of every prefix
    for item in corpus():
        if item.G.n <= 200:
            oracles.grid_audit_every_prefix(item.emb)


def test_every_corpus_placement_matches_the_reference_formulas():
    # grid_embed rerun with both placement rules wrapped: each call's point
    # must equal the flat Fraction reference on the same arguments
    calls = []

    def checked(name, ref):
        rule = getattr(embedding, name)

        def place(*args):
            pt = rule(*args)
            assert pt == ref(*args), (name, args)
            calls.append(name)
            return pt

        return place

    with pytest.MonkeyPatch.context() as mp:
        for name, ref in (
            ("place_high_degree", oracles.high_degree_point),
            ("place_degree_two", oracles.degree_two_point),
        ):
            mp.setattr(embedding, name, checked(name, ref))
        for item in corpus():
            assert grid_embed(item.G, item.a, audit=False).coords == item.emb.coords, item.label
    assert min(calls.count("place_high_degree"), calls.count("place_degree_two")) > 1000


def test_peel_engine_matches_the_copy_on_delete_peel_on_the_corpus():
    # every corpus sequence, greedy or staged, re-peeled by the reference;
    # the greedy ones are also re-chosen by the reference's full scans
    for item in corpus():
        G, a = item.G, item.a
        assert item.trace == a == oracles.peel_order_reference(G, a.order), item.label
        if item.plan is None:
            assert a == oracles.shedding_sequence_reference(G, *a.order[:2]), item.label


def test_criterion_2_lift_heights_bounded_and_convex():
    for item in corpus():
        P, G, n = item.P, item.G, item.G.n
        tau = tau_profile(G, item.a).tau
        for i, v in enumerate(item.a.order, start=1):
            if i >= 4:
                assert P.heights[v] <= height_bound(n, P.m[v]), (item.label, v)
        cap = (500 * n**8) ** tau
        assert oracles.max_height(P) <= cap, item.label
        assert oracles.max_height(P) <= (500 * n**8) ** n, item.label
        assert check_lift_convex(P).passed, item.label
        if n <= 50:
            assert lift_convex_globally(P).passed, item.label
            if n >= 4:
                # greedy heights are minimal, so one unit lower must break
                # convexity, and both convexity oracles must agree on that
                w = item.a.order[-1]
                x, y = item.emb.coords[w]
                h = P.heights[w] - 1
                tam = replace(
                    P,
                    heights={**P.heights, w: h},
                    points={**P.points, w: Point3(x, y, h)},
                )
                assert not check_lift_convex(tam).passed, item.label
                assert not lift_convex_globally(tam).passed, item.label


def test_criterion_3_base_coordinates_and_template_constants():
    pts = oracles.rational_embed(triangle(), shedding_sequence(triangle(), 0, 1))
    assert pts == {
        0: Point2(Fraction(0), Fraction(0)),
        1: Point2(Fraction(2), Fraction(0)),
        2: Point2(Fraction(1), Fraction(1)),
    }
    for item in corpus():
        n = item.G.n
        tpl = item.emb.template
        rt = tpl.rt
        R = rt.size
        xs = [xy[0] for xy in rt.Gstar.coords.values()]
        ys = [xy[1] for xy in rt.Gstar.coords.values()]
        assert max(xs) - min(xs) == 2 * (rt.mprime + 1) <= 2 * (R - 2), item.label
        assert max(ys) - min(ys) == comb(rt.mprime + 2, 2) <= comb(R - 1, 2), item.label
        assert tpl.alpha == 2 * n * n + n + 1, item.label
        assert tpl.beta == 2 * n * tpl.alpha, item.label
        assert oracles.template_max_slope(tpl) <= 2 * n * n, item.label
        slopes = sorted(oracles.template_slopes(tpl, R), reverse=True)
        assert all(s1 - s2 >= 2 * n for s1, s2 in zip(slopes, slopes[1:])), item.label


def test_criterion_4_grid_schedule_depth_and_batch_bounds():
    grids = [item for item in corpus() if item.plan is not None]
    assert grids
    seen_5x5x3 = 0
    for item in grids:
        p, q, ell = item.grid
        plan = item.plan
        T, a = item.G, plan.sequence
        deletion_trace(T, a)  # raises unless a genuine sequence
        tau = tau_profile(T, a).tau
        assert tau == plan.tau <= 6 * ell * (p + q) == plan.tau_bound, item.label
        batches = plan.antichains
        assert len(batches) <= ell * (2 * p + 6 * q) == plan.antichain_bound, item.label
        cover = [v for b in batches for v in b]
        assert len(cover) == len(set(cover)) == T.n - 3, item.label
        assert set(cover) == set(T.vertices) - set(a.order[:3]), item.label
        edges = set(map(frozenset, oracles.edges(T)))
        for b in batches:
            b = sorted(b)
            for ia in range(len(b)):
                for ib in range(ia + 1, len(b)):
                    assert frozenset((b[ia], b[ib])) not in edges, item.label
        if (p, q, ell) == (5, 5, 3):
            seen_5x5x3 += 1
            assert plan.tau_bound == 180 and plan.antichain_bound == 120
    assert seen_5x5x3 >= 3


def test_criterion_5_small_instance_oracles_agree():
    small = [item for item in corpus() if item.G.n <= 9]
    assert len(small) >= 40
    for item in small:
        G = item.G
        tau_min, witness = min_tau_exhaustive(G)
        assert oracles.is_shedding_sequence(G, witness.order), item.label
        assert tau_profile(G, witness).tau == tau_min, item.label
        assert oracles.tau_by_longest_path(G, witness.order) == tau_min, item.label
        heuristic = [item.a]
        cyc = G.boundary
        for j in range(len(cyc)):
            u, v = cyc[j], cyc[(j + 1) % len(cyc)]
            heuristic.append(shedding_sequence(G, u, v))
            heuristic.append(shedding_sequence(G, v, u))
        for a in heuristic:
            t = tau_profile(G, a).tau
            assert tau_min <= t, item.label
            assert t == oracles.tau_by_longest_path(G, a.order), item.label
    # the peel engine's count-based shedding test and the O(deg) link test
    # against the delete-and-validate definition, on every boundary vertex of
    # every corpus instance (the predicate is only defined once there is
    # something left after a deletion, so n >= 4)
    for item in corpus():
        if item.G.n < 4:
            continue
        engine = PeelEngine(item.G)
        for v in item.G.boundary:
            indep = oracles.shedding_definitional(item.G, v)
            assert engine.is_shedding(v) == indep, (item.label, v)
            assert oracles.is_shedding_vertex(item.G, v) == indep, (item.label, v)


def test_criterion_6_spot_depth_value_substituted_by_bounds_and_oracles():
    # One published depth value for a specific 5x5 instance exists only as a
    # drawing, and redrawing it by eye is not reproducible verification (see
    # the decisions ledger).  The recorded substitute is: the depth and batch
    # bounds on every generated 5x5 instance of the same family, plus the
    # independent depth oracle on each of their schedules.
    family = [item for item in corpus() if item.grid == (5, 5, 3)]
    assert len(family) >= 3
    for item in family:
        plan = item.plan
        assert plan.tau <= plan.tau_bound == 180, item.label
        assert len(plan.antichains) <= plan.antichain_bound == 120, item.label
        assert oracles.tau_by_longest_path(item.G, plan.sequence.order) == plan.tau


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = entry(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def test_criterion_7_pipeline_outputs_byte_deterministic():
    def grid_pass(seed: int):
        c1, gen, _ = _run(["gen-grid", "5", "5", "3", "--seed", str(seed)])
        c2, emb, audit = _run(["embed", "--audit"], gen)
        c3, off, _ = _run(["lift"], emb)
        c4, rep, _ = _run(["verify"], off)
        assert (c1, c2, c3, c4) == (0, 0, 0, 0)
        return gen, emb, audit, off, rep

    def stacked_pass(seed: int):
        c1, gen, _ = _run(["gen-stacked", "30", "--seed", str(seed)])
        c2, emb, _ = _run(["embed"], gen)
        c3, off, audit = _run(["lift", "--truncate", "--audit"], emb)
        c4, rep, _ = _run(["verify"], off)
        assert (c1, c2, c3, c4) == (0, 0, 0, 0)
        return gen, emb, off, audit, rep

    for seed in (7, 11):
        assert grid_pass(seed) == grid_pass(seed)
    assert stacked_pass(5) == stacked_pass(5)
    # and the library layer itself: same inputs, identical geometry
    G = gen_stacked(40, 9)
    a = shedding_sequence(G, 0, 1)
    e1, e2 = grid_embed(G, a), grid_embed(G, a)
    assert e1.coords == e2.coords and e1.audit == e2.audit
    assert lift(e1, a).heights == lift(e2, a).heights
