"""Drawing tests: placement formulas, template scaling, grid embeddings, and
the rational reference drawing of tests/oracles.py."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import EmptyRegion, rational_embed
from shedpoly import embedding
from shedpoly.corpus import gen_stacked
from shedpoly.embedding import (
    ParallelSupportLines,
    PropertyViolation,
    UpperChain,
    _audit_grid_step,
    grid_embed,
    place_degree_two,
    place_high_degree,
)
from shedpoly.exactgeom import Point2, orient2d
from shedpoly.griddiam import gen_grid_triangulation, uniform_grid_triangulation
from shedpoly.triangulation import PlaneTriangulation, edge_key, shedding_sequence
from shedpoly.verify import check_grid_bounds
from shapes import pentagon_fan, split_square, stacked_k4, triangle


def instances():
    yield triangle(), (0, 1)
    yield split_square(), (0, 1)
    yield stacked_k4(), (0, 1)
    yield pentagon_fan(), (0, 1)
    for n, seed in ((6, 1), (9, 2), (12, 3), (25, 4), (60, 5)):
        yield gen_stacked(n, seed), (0, 1)


def fan(n):
    """Apex 0 over the path 1..n-1: every vertex on the boundary."""
    return PlaneTriangulation(range(n), [(0, i, i + 1) for i in range(1, n - 1)], range(n))


def ladder(k):
    """The k x 2 lattice strip with one-way diagonals (n = 2k)."""
    return uniform_grid_triangulation(k, 2).T


def embed_of(G, base):
    a = shedding_sequence(G, *base)
    return a, grid_embed(G, a)


def assert_convex_position(G, coords):
    """Independent certificate: all faces ccw and the boundary polygon strictly convex."""
    for t in G.triangles:
        p, q, r = (Point2(*coords[v]) for v in t)
        assert orient2d(p, q, r) == 1, f"face {t} not ccw"
    cyc = G.boundary
    b = len(cyc)
    for j in range(b):
        p, q, r = (Point2(*coords[cyc[(j + k) % b]]) for k in range(3))
        assert orient2d(p, q, r) == 1, f"boundary not strictly convex at {cyc[j]}"


# -- placement formulas ---------------------------------------------------------


def test_high_degree_worked_example():
    assert place_high_degree([(0, 0), (1, 3), (4, 3), (5, 0)]) == (3, 10)
    assert oracles.high_degree_point([(0, 0), (1, 3), (4, 3), (5, 0)]) == (3, 10)


def test_high_degree_matches_oracle():
    rng = random.Random(20260815)
    for _ in range(300):
        k = rng.randint(3, 6)
        slopes = sorted(rng.sample(range(-12, 13), k - 1), reverse=True)
        x, y = rng.randint(-5, 5), rng.randint(0, 5)
        pts = [(x, y)]
        for s in slopes:
            dx = rng.randint(1, 6)
            x += dx
            y += s * dx
            pts.append((x, y))
        got = place_high_degree(pts)
        assert got == oracles.high_degree_point(pts)
        for pa, pb in zip(pts, pts[1:]):
            assert orient2d(Point2(*pa), Point2(*pb), Point2(*got)) == 1


def test_high_degree_rejects_bad_support_slopes():
    with pytest.raises(ParallelSupportLines, match=r"^support slopes s=1 <= u=1$"):
        place_high_degree([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(ParallelSupportLines, match=r"^support slopes s=-1 <= u=2$"):
        place_high_degree([(0, 0), (1, -1), (2, 1)])
    # a support edge with zero or negative x-extent
    for ws in ([(0, 0), (0, 1), (2, 0)], [(0, 0), (1, 1), (1, 0)], [(0, 0), (-1, 5), (2, 0)]):
        with pytest.raises(ParallelSupportLines, match="not x-increasing"):
            place_high_degree(ws)


def test_degree_two_worked_examples():
    assert place_degree_two((1, 7), (9, 1), (0, 6), (4, 0), (2, 4)) == (5, 6)
    # template apex left of center: x is floored, shear pulls y up here
    assert place_degree_two((-8, 3), (0, 10), (-3, 1), (1, 5), (-1, 4)) == (-4, 9)
    assert place_degree_two((-8, 3), (-2, 10), (-3, 1), (1, 5), (-1, 4)) == (-5, 8)


# small values make every rounding step matter; large ones, long integers
BIG = st.integers(-9, 9) | st.integers(-(10**12), 10**12)
EXTENT = st.integers(1, 9) | st.integers(1, 10**12)


@settings(max_examples=400, deadline=None)
@given(
    w1=st.tuples(BIG, BIG),
    dxs=st.lists(EXTENT, min_size=2, max_size=3),
    ys=st.lists(BIG, min_size=3, max_size=3),
)
def test_high_degree_matches_oracle_on_large_coordinates(w1, dxs, ys):
    pts = [w1]
    for dx, y in zip(dxs, ys):
        pts.append((pts[-1][0] + dx, y))
    s = Fraction(pts[1][1] - pts[0][1], pts[1][0] - pts[0][0])
    u = Fraction(pts[-1][1] - pts[-2][1], pts[-1][0] - pts[-2][0])
    if s <= u:
        with pytest.raises(ParallelSupportLines) as info:
            place_high_degree(pts)
        assert str(info.value) == f"support slopes s={s} <= u={u}"
    else:
        assert place_high_degree(pts) == oracles.high_degree_point(pts)


@settings(max_examples=400, deadline=None)
@given(
    w1=st.tuples(BIG, BIG),
    w2y=BIG,
    wdx=EXTENT,
    b1=st.tuples(BIG, BIG),
    b2y=BIG,
    bdx=EXTENT,
    apex=st.tuples(BIG, BIG),
    flip=st.booleans(),
)
@example(w1=(0, 0), w2y=5, wdx=3, b1=(-1, 0), b2y=0, bdx=2, apex=(0, 7), flip=False)
def test_degree_two_matches_oracle_on_large_coordinates(w1, w2y, wdx, b1, b2y, bdx, apex, flip):
    # flip: both x-extents negative, which keeps the scale factor positive
    sx = -1 if flip else 1
    w2 = (w1[0] + sx * wdx, w2y)
    b2 = (b1[0] + sx * bdx, b2y)
    assert place_degree_two(w1, w2, b1, b2, apex) == oracles.degree_two_point(w1, w2, b1, b2, apex)


# -- the scaled template --------------------------------------------------------


def test_template_constants():
    for G, base in instances():
        _, emb = embed_of(G, base)
        n = G.n
        tpl = emb.template
        assert tpl.alpha == 2 * n * n + n + 1
        assert tpl.beta == 2 * n * tpl.alpha
        mprime = tpl.rt.mprime
        M = oracles.template_max_slope(tpl)
        assert M == 2 * n * (mprime + 1)
        assert M <= 2 * n * n
        assert 2 * n * (mprime + 1) <= 2 * n * n


def test_template_prefix_slope_gaps():
    for G, base in instances():
        _, emb = embed_of(G, base)
        tpl = emb.template
        n = G.n
        for j in range(3, tpl.rt.Gstar.n + 1):
            slopes = oracles.template_slopes(tpl, j)
            assert len(set(slopes)) == len(slopes)
            for ia in range(len(slopes)):
                for ib in range(ia + 1, len(slopes)):
                    assert abs(slopes[ia] - slopes[ib]) >= 2 * n


# -- grid embeddings ------------------------------------------------------------


def test_triangle_grid_frozen():
    _, emb = embed_of(triangle(), (0, 1))
    assert emb.coords == {0: (-22, 0), 1: (22, 0), 2: (0, 132)}
    assert emb.mirrored is False
    assert emb.width == 44 and emb.height == 132


def test_k4_grid_frozen():
    _, emb = embed_of(stacked_k4(), (0, 1))
    assert emb.coords == {0: (-37, 0), 1: (37, 0), 2: (0, 297), 3: (0, 296)}
    assert emb.mirrored is False


def test_square_grid_frozen():
    _, emb = embed_of(split_square(), (0, 1))
    assert emb.coords == {0: (-74, 0), 1: (74, 0), 2: (0, 888), 3: (-37, 592)}
    assert emb.mirrored is True


def test_reversed_base_same_drawing():
    _, emb_fwd = embed_of(triangle(), (0, 1))
    _, emb_rev = embed_of(triangle(), (1, 0))
    assert emb_fwd.coords == emb_rev.coords


def test_left_heavy_instance_mirrors():
    a = shedding_sequence(pentagon_fan(), 0, 1)
    emb = grid_embed(pentagon_fan(), a)
    assert emb.mirrored is True
    assert_convex_position(pentagon_fan(), emb.coords)


def test_grid_corpus_certified():
    for G, base in instances():
        a, emb = embed_of(G, base)
        n = G.n
        assert_convex_position(G, emb.coords)
        x0, y0, x1, y1 = emb.bbox()
        assert emb.width <= 4 * n**3
        assert emb.height <= 8 * n**5
        assert y0 == 0
        lbx, rbx = sorted((emb.coords[a.order[0]][0], emb.coords[a.order[1]][0]))
        assert emb.coords[a.order[0]][1] == emb.coords[a.order[1]][1] == 0
        assert lbx < 0 < rbx
        assert emb.correspondence[edge_key(*a.order[:2])] == (0, 1)
        M = oracles.template_max_slope(emb.template)
        # slopes of all edges stay within M + n of the template, so within 2n^2 + n
        for u, v in oracles.edges(G):
            (xu, yu), (xv, yv) = emb.coords[u], emb.coords[v]
            if xu != xv:
                s = Fraction(yv - yu, xv - xu)
                if tuple(sorted((u, v))) in emb.correspondence:
                    assert abs(s) <= M + n <= 2 * n * n + n


def test_long_fan_embeds_without_recursion():
    # apex 0 over the path 1..1099: the contracted tree is a 1000-level chain,
    # and the audited boundary grows to the whole vertex set
    n = 1100
    G = fan(n)
    a = shedding_sequence(G, G.boundary[0], G.boundary[1])
    emb = grid_embed(G, a)
    assert len(emb.audit) == n - 2
    assert check_grid_bounds(emb.coords, n).passed


def test_grid_embed_deterministic():
    G = gen_stacked(40, 11)
    a = shedding_sequence(G, 0, 1)
    e1 = grid_embed(G, a)
    e2 = grid_embed(G, a)
    assert e1.coords == e2.coords
    assert e1.audit == e2.audit


# -- the incremental audit against the full-boundary oracle ----------------------


def test_audit_oracle_passes_every_prefix_of_deep_disks():
    for G in (fan(200), ladder(100)):
        a = shedding_sequence(G, G.boundary[0], G.boundary[1])
        oracles.grid_audit_every_prefix(grid_embed(G, a))


def _faulty_embed(G, a, step, fault, audit):
    """grid_embed with the placement of step ``step`` replaced by
    fault(i, link points, point).  Returns the exception it raised (or None)
    and every point the placement rules produced, in step order."""
    placed = []
    real = {
        "place_high_degree": embedding.place_high_degree,
        "place_degree_two": embedding.place_degree_two,
    }

    def wrapped(name):
        def place(*args):
            pt = real[name](*args)
            i = 4 + len(placed)
            if i == step:
                wpts = args[0] if name == "place_high_degree" else [args[0], args[1]]
                pt = fault(i, wpts, pt)
            placed.append(pt)
            return pt

        return place

    with pytest.MonkeyPatch.context() as mp:
        for name in real:
            mp.setattr(embedding, name, wrapped(name))
        try:
            grid_embed(G, a, audit=audit)
        except Exception as exc:  # compared by type and text below
            return exc, placed
    return None, placed


def _oracle_embed(G, a, step, fault):
    """The outcome grid_embed has with grid_audit_oracle as its audit.

    Places the same faulty points without the audit, then runs the oracle on
    every prefix whose point passed the placement checks, in step order."""
    clean = grid_embed(G, a, audit=False)
    work, lb, rb, _ = oracles.construction_frame(clean)
    tpl, zmap = clean.template, clean.correspondence
    exc, placed = _faulty_embed(G, a, step, fault, audit=False)
    checked = len(placed)
    if isinstance(exc, PropertyViolation) and exc.which == "3" and exc.i == 3 + checked:
        checked -= 1  # the last point failed its placement check
    coords = {lb: tpl.z[0], rb: tpl.z[1], work.order[2]: tpl.z[2]}
    try:
        oracles.grid_audit_oracle(3, coords, work.boundary(3), lb, zmap, tpl)
        for i, pt in enumerate(placed[:checked], start=4):
            coords[work.order[i - 1]] = pt
            oracles.grid_audit_oracle(i, coords, work.boundary(i), lb, zmap, tpl)
    except PropertyViolation as violation:
        return violation
    return exc


def _lowest_above(wpts, x):
    """The smallest integer y strictly above every covered edge's line at x."""
    return 1 + max(
        p[1] + (q[1] - p[1]) * (x - p[0]) // (q[0] - p[0]) for p, q in zip(wpts, wpts[1:])
    )


PLACEMENT_FAULTS = {
    # x-extent 1 on the edge (w_1, a_i), still above the covered edges
    "narrow": lambda i, w, pt: (w[0][0] + 1, _lowest_above(w, w[0][0] + 1)),
    # far too steep on both new edges
    "steep": lambda i, w, pt: (pt[0], pt[1] + 3 * i * (w[-1][0] - w[0][0])),
    # just above the covered edges: both new slopes leave the template's
    "flat": lambda i, w, pt: (pt[0], _lowest_above(w, pt[0])),
    # below the covered edges, or on the link's right end
    "sunk": lambda i, w, pt: (pt[0], min(p[1] for p in w) - 1),
    "wall": lambda i, w, pt: (w[-1][0], pt[1]),
    # off by one: usually harmless
    "up": lambda i, w, pt: (pt[0], pt[1] + 1),
    "down": lambda i, w, pt: (pt[0], pt[1] - 1),
    "left": lambda i, w, pt: (pt[0] - 1, pt[1]),
}


def test_placement_faults_raise_as_the_full_oracle_does():
    fired = set()
    cases = [
        (gen_stacked(25, 4), 2),
        (fan(30), 1),
        (ladder(12), 1),
        (gen_grid_triangulation(5, 5, 3, 7).T, 1),
    ]
    for G, every in cases:
        a = shedding_sequence(G, G.boundary[0], G.boundary[1])
        for step in range(4, G.n + 1, every):
            for kind, fault in PLACEMENT_FAULTS.items():
                got, _ = _faulty_embed(G, a, step, fault, audit=True)
                want = _oracle_embed(G, a, step, fault)
                where = f"n={G.n} step {step} fault {kind}"
                assert type(got) is type(want), f"{where}: {got!r} vs {want!r}"
                assert str(got) == str(want), where
                if isinstance(got, PropertyViolation):
                    assert (got.i, got.which) == (want.i, want.which), where
                    fired.add(got.which)
    assert {"1", "2", "3"} <= fired


def _audit_outcomes(work, lb, rb, coords, zmap, tpl):
    """The first PropertyViolation (or None) of the library's audit and of
    the full oracle, each run over every prefix of the same drawing."""

    def first(audit):
        for i in range(3, work.n + 1):
            try:
                audit(i)
            except PropertyViolation as violation:
                return violation
        return None

    upper = UpperChain(lb, work.order[2], rb)
    return (
        first(lambda i: _audit_grid_step(i, work, upper, coords, zmap, tpl)),
        first(lambda i: oracles.grid_audit_oracle(i, coords, work.boundary(i), lb, zmap, tpl)),
    )


def _collinear_ys(p, q, x):
    """y values that put (x, y) on the line through p and q, if integral."""
    num = (q[1] - p[1]) * (x - p[0])
    return [p[1] + num // (q[0] - p[0])] if num % (q[0] - p[0]) == 0 else []


def test_audit_chain_pairs_match_the_oracle_on_tampered_drawings():
    # The drawing serves as its own template, so P(i,1) and P(i,2) hold with
    # equality and only the chain-pair test of P(i,3) can fire.  Placement
    # faults never reach it: with the real template, P(i,2) and the template's
    # slope gaps of 2n already force the chain pairs at a_i to be convex.
    rng = random.Random(20261018)
    fired = 0
    for G in (gen_stacked(30, 2), fan(25), ladder(10), gen_grid_triangulation(5, 5, 3, 7).T):
        a = shedding_sequence(G, G.boundary[0], G.boundary[1])
        emb = grid_embed(G, a)
        work, lb, rb, clean = oracles.construction_frame(emb)
        zmap = {edge_key(u, v): (u, v) for u, v in oracles.edges(G)}
        for j in range(4, G.n + 1):
            v = work.order[j - 1]
            x, y = clean[v]
            ws = work.link(j)
            chain = oracles.chain_from_cycle(work.boundary(j - 1), lb)
            ys = _collinear_ys(clean[ws[0]], clean[ws[-1]], x)
            if ws[0] != lb:
                ys += _collinear_ys(clean[chain[chain.index(ws[0]) - 1]], clean[ws[0]], x)
            ys += [y + d for d in (1, -1, rng.randint(2, 10**6), -rng.randint(2, 10**6))]
            for y2 in ys:
                coords = {**clean, v: (x, y2)}
                tpl = replace(emb.template, z=coords)
                got, want = _audit_outcomes(work, lb, rb, coords, zmap, tpl)
                assert str(got) == str(want), f"n={G.n} v={v} y={y2}"
                fired += got is not None
    assert fired > 100


def test_audit_edge_bounds_match_the_oracle_on_tampered_templates():
    # A true drawing against a template that is the drawing with one vertex
    # moved: P(i,1) and P(i,2) fire or hold at exactly their bounds.
    fired = set()
    for G in (gen_stacked(30, 2), fan(25), ladder(10), gen_grid_triangulation(5, 5, 3, 7).T):
        a = shedding_sequence(G, G.boundary[0], G.boundary[1])
        emb = grid_embed(G, a)
        work, lb, rb, coords = oracles.construction_frame(emb)
        zmap = {edge_key(u, v): (u, v) for u, v in oracles.edges(G)}
        adj = G.adjacency()
        for j in range(4, G.n + 1):
            v = work.order[j - 1]
            x, y = coords[v]
            ws = work.link(j)
            dx1, dx2 = x - coords[ws[0]][0], coords[ws[-1]][0] - x
            moves = [(0, j * dx1), (0, -j * dx2), (0, j * dx1 + 1), (0, -j * dx2 - 1)]
            moves += [(1, 0), (-1, 0), (dx2 - 1, 0), (1 - dx1, 0)]
            for mx, my in moves:
                if any(coords[u][0] == x + mx for u in adj[v]):
                    continue  # a vertical template edge has no slope
                tpl = replace(emb.template, z={**coords, v: (x + mx, y + my)})
                got, want = _audit_outcomes(work, lb, rb, coords, zmap, tpl)
                assert str(got) == str(want), f"n={G.n} v={v} move={(mx, my)}"
                if got is not None:
                    fired.add(got.which)
    assert fired == {"1", "2"}


def test_audit_rejects_a_link_off_the_chain():
    G = gen_stacked(12, 3)
    a = shedding_sequence(G, 0, 1)
    emb = grid_embed(G, a)
    work, lb, rb, coords = oracles.construction_frame(emb)
    i = 4
    bad = replace(work, links=(work.link(i)[::-1],) + work.links[1:])
    upper = UpperChain(lb, work.order[2], rb)
    _audit_grid_step(3, bad, upper, coords, emb.correspondence, emb.template)
    with pytest.raises(PropertyViolation, match="not a run of the upper chain") as info:
        _audit_grid_step(i, bad, upper, coords, emb.correspondence, emb.template)
    assert (info.value.i, info.value.which) == (i, "correspondence")


def test_upper_chain_splice_and_window():
    ch = UpperChain(0, 2, 1)
    assert ch.window(2) == [0, 2, 1]
    assert ch.splice(3, (2, 1))
    assert ch.window(3) == [0, 2, 3, 1]
    assert ch.splice(4, (0, 2, 3))
    assert ch.window(4) == [0, 4, 3, 1]
    assert 2 not in ch.left and 2 not in ch.right
    assert not ch.splice(5, (3, 4))  # reversed: not a left-to-right run
    assert not ch.splice(5, (0, 3))  # skips 4
    assert ch.window(4) == [0, 4, 3, 1]


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder")),
    size=st.integers(4, 26),
    seed=st.integers(0, 10**6),
    edge=st.integers(0, 10**6),
    flip=st.booleans(),
)
def test_small_disks_with_any_base_edge_pass_the_audit_and_the_oracle(
    shape, size, seed, edge, flip
):
    if shape == "stacked":
        G = gen_stacked(size, seed)
    elif shape == "fan":
        G = fan(size)
    else:
        G = ladder(max(2, size // 2))
    b = G.boundary
    u, v = b[edge % len(b)], b[(edge + 1) % len(b)]
    if flip:
        u, v = v, u
    a = shedding_sequence(G, u, v)
    emb = grid_embed(G, a)
    oracles.grid_audit_every_prefix(emb)
    assert check_grid_bounds(emb.coords, G.n).passed


# -- rational embeddings --------------------------------------------------------


def test_rational_triangle_frozen():
    coords = rational_embed(triangle(), shedding_sequence(triangle(), 0, 1))
    assert coords == {
        0: Point2(Fraction(0), Fraction(0)),
        1: Point2(Fraction(2), Fraction(0)),
        2: Point2(Fraction(1), Fraction(1)),
    }


def test_rational_k4_frozen():
    coords = rational_embed(stacked_k4(), shedding_sequence(stacked_k4(), 0, 1))
    assert coords[0] == Point2(Fraction(0), Fraction(0))
    assert coords[1] == Point2(Fraction(2), Fraction(0))
    assert coords[3] == Point2(Fraction(1), Fraction(1))
    assert coords[2] == Point2(Fraction(1), Fraction(17, 12))


def test_rational_corpus_certified():
    # denominators compound step over step, so keep these instances small
    small = [
        (triangle(), (0, 1)),
        (split_square(), (0, 1)),
        (stacked_k4(), (0, 1)),
        (pentagon_fan(), (0, 1)),
        (gen_stacked(8, 1), (0, 1)),
        (gen_stacked(11, 2), (0, 1)),
    ]
    for G, base in small:
        a = shedding_sequence(G, *base)
        coords = rational_embed(G, a)
        assert_convex_position(G, coords)
        assert oracles.sequentially_convex_oracle(coords, a) is None
        ys = [p.y for p in coords.values()]
        assert min(ys) == 0


def test_rational_rejects_a_link_off_the_chain():
    G = gen_stacked(12, 3)
    a = shedding_sequence(G, 0, 1)
    bad = replace(a, links=(a.link(4)[::-1],) + a.links[1:])
    with pytest.raises(EmptyRegion, match="step 4: link .* is not a run of the upper chain"):
        rational_embed(G, bad)


def _lifted_rational(G, a, step, audit):
    """rational_embed with the point of step ``step`` moved 10^6 up: still
    above the covered edges, but past the support lines at w_1 and w_k
    unless they are the base ends.  Returns the exception it raised (or
    None) and every point _region_point produced, in step order."""
    placed = []
    real = oracles._region_point

    def region_point(constraints):
        pt = real(constraints)
        if 4 + len(placed) == step:
            pt = Point2(pt.x, pt.y + 10**6)
        placed.append(pt)
        return pt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_region_point", region_point)
        try:
            rational_embed(G, a, audit=audit)
        except EmptyRegion as exc:
            return exc, placed
    return None, placed


def test_rational_audit_fires_where_a_full_scan_does():
    fired = quiet = 0
    for G in (gen_stacked(11, 2), gen_stacked(14, 1), fan(9), gen_grid_triangulation(3, 4, 3, 1).T):
        a = shedding_sequence(G, G.boundary[0], G.boundary[1])
        clean = rational_embed(G, a)
        lb = min((a.order[0], a.order[1]), key=lambda v: clean[v].x)
        for step in range(4, G.n + 1):
            got, _ = _lifted_rational(G, a, step, audit=True)
            # the full scan of every prefix over the points placed unaudited
            want, placed = _lifted_rational(G, a, step, audit=False)
            if want is not None and "not above covered edge" in str(want):
                placed.pop()
            coords = {v: clean[v] for v in a.order[:3]}
            for i, pt in enumerate(placed, start=4):
                coords[a.order[i - 1]] = pt
                if oracles.upper_chain_fault(coords, a.boundary(i), lb) is not None:
                    want = EmptyRegion(f"step {i}: prefix chain lost strict convexity")
                    break
            assert str(got) == str(want), f"n={G.n} step {step}"
            if got is None:
                quiet += 1
            else:
                assert str(got) == f"step {step}: prefix chain lost strict convexity"
                fired += 1
    assert fired > 20 and quiet > 0


# sha256 of "v x y" lines (vertices ascending, str(Fraction)) of rational_embed
# on the greedy shedding sequence; pinned before its chain walk was rewritten
RATIONAL_PINNED = {
    "stacked-8-1-01": "ad23c7061141eee1b9755ec13a5e484385f5a2a493f275ecb3e02a2baf51ffb8",
    "stacked-8-1-10": "ad23c7061141eee1b9755ec13a5e484385f5a2a493f275ecb3e02a2baf51ffb8",
    "stacked-8-1-12": "ebf25e599223eebce59d346c83d7f25beb89484b8eb802a4da131a67a2ff1c4b",
    "stacked-8-2-01": "680de02a5cea7ea0cca86118c46287eb4c61ce23df8b89bdff8e3ae0bbe33ce4",
    "stacked-8-2-10": "680de02a5cea7ea0cca86118c46287eb4c61ce23df8b89bdff8e3ae0bbe33ce4",
    "stacked-8-2-12": "1ebf8b5d126eaebd100dbd465b0e2f849865f1df1840f4a1fb2804eacf1a7b42",
    "stacked-11-1-01": "51af63925c1ee2031ffdea0b870f7b8494477b6032390f46315c9fae5522aa86",
    "stacked-11-1-10": "51af63925c1ee2031ffdea0b870f7b8494477b6032390f46315c9fae5522aa86",
    "stacked-11-1-12": "bf9bd2378d00a3bd61655b8a43e57432aa1229a5146e3bb5a4a40212eeb91f7d",
    "stacked-11-2-01": "ef1a294e2fcec3f1d80c213b58b07396074ede817a2f063dd5e0a7da06b2f1ab",
    "stacked-11-2-10": "ef1a294e2fcec3f1d80c213b58b07396074ede817a2f063dd5e0a7da06b2f1ab",
    "stacked-11-2-12": "d4bec127895209e8995a57b2902d8bd4b81b0d11d8de90d1a32315a906ce290b",
    "stacked-14-1-01": "dd5aa60a1b71010fec8c30836c3cc25cc04a1a8a95c78a9b0a8bf2f39f9379b5",
    "stacked-14-1-10": "dd5aa60a1b71010fec8c30836c3cc25cc04a1a8a95c78a9b0a8bf2f39f9379b5",
    "stacked-14-1-12": "ed817dd14037151ea34a5b0f2242cdd784fc2b22703c60813b71e221de3c2e5e",
    "stacked-14-2-01": "87c1d23dc7a66f9ecdffad04b2993fde283ea86f87f232c4776ae8f34c9ff330",
    "stacked-14-2-10": "87c1d23dc7a66f9ecdffad04b2993fde283ea86f87f232c4776ae8f34c9ff330",
    "stacked-14-2-12": "f1e4dce7ff88b4d45469675988c95d03e581c8cacfbbe1a646b4f2fbd4e8f96b",
    "fan-9-01": "0ae8662a55f629433d72bbcb3c47ff6097631103c455aee472fc7edd803bfe9d",
    "fan-9-54": "36b61016e392c6b8b17504b4606ca12da5d3009d1813e997cd30366a3932cf48",
    "grid-3x3": "1f61184afb54741640280f2d904d21d3090c1d230db57d964770c608930840c5",
    "grid-3x4x3": "b33b93bb150f8b2cb932cd6c06ee89c03fc076ca403d5ac27b877b0874a79cb4",
}


def rational_pinned_cases():
    for n in (8, 11, 14):
        for seed in (1, 2):
            for base in ((0, 1), (1, 0), (1, 2)):
                yield f"stacked-{n}-{seed}-{base[0]}{base[1]}", gen_stacked(n, seed), base
    for base in ((0, 1), (5, 4)):
        yield f"fan-9-{base[0]}{base[1]}", fan(9), base
    G = uniform_grid_triangulation(3, 3).T
    yield "grid-3x3", G, G.boundary[:2]
    G = gen_grid_triangulation(3, 4, 3, 1).T
    yield "grid-3x4x3", G, G.boundary[:2]


def test_rational_embed_output_pinned():
    seen = set()
    for label, G, base in rational_pinned_cases():
        coords = rational_embed(G, shedding_sequence(G, *base))
        text = "".join(f"{v} {coords[v].x} {coords[v].y}\n" for v in sorted(coords))
        assert hashlib.sha256(text.encode()).hexdigest() == RATIONAL_PINNED[label], label
        seen.add(label)
    assert seen == set(RATIONAL_PINNED)
