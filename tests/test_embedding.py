"""Drawing tests: placement formulas, template scaling, grid and rational embeddings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from shedpoly.corpus import gen_stacked, pentagon_fan, split_square, stacked_k4, triangle
from shedpoly.embedding import (
    ParallelSupportLines,
    grid_embed,
    place_degree_two,
    place_high_degree,
    rational_embed,
)
from shedpoly.exactgeom import Point2, orient2d, slope
from shedpoly.triangulation import PlaneTriangulation, shedding_sequence
from shedpoly.verify import check_grid_bounds


def instances():
    yield triangle(), (0, 1)
    yield split_square(), (0, 1)
    yield stacked_k4(), (0, 1)
    yield pentagon_fan(), (0, 1)
    for n, seed in ((6, 1), (9, 2), (12, 3), (25, 4), (60, 5)):
        yield gen_stacked(n, seed), (0, 1)


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
    with pytest.raises(ParallelSupportLines):
        place_high_degree([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(ParallelSupportLines):
        place_high_degree([(0, 0), (1, -1), (2, 1)])


def test_degree_two_worked_examples():
    assert place_degree_two((1, 7), (9, 1), (0, 6), (4, 0), (2, 4)) == (5, 6)
    # template apex left of center: x is floored, shear pulls y up here
    assert place_degree_two((-8, 3), (0, 10), (-3, 1), (1, 5), (-1, 4)) == (-4, 9)
    assert place_degree_two((-8, 3), (-2, 10), (-3, 1), (1, 5), (-1, 4)) == (-5, 8)


# -- the scaled template --------------------------------------------------------


def test_template_constants():
    for G, base in instances():
        _, emb = embed_of(G, base)
        n = G.n
        tpl = emb.template
        assert tpl.alpha == 2 * n * n + n + 1
        assert tpl.beta == 2 * n * tpl.alpha
        mprime = tpl.rt.mprime
        assert tpl.M == 2 * n * (mprime + 1)
        assert tpl.M <= 2 * n * n
        assert 2 * n * (mprime + 1) <= 2 * n * n


def test_template_prefix_slope_gaps():
    for G, base in instances():
        _, emb = embed_of(G, base)
        tpl = emb.template
        n = G.n
        for j in range(3, tpl.rt.Gstar.n + 1):
            slopes = tpl.prefix_boundary_slopes(j)
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
        assert emb.correspondence[tuple(sorted(a.base_edge))] == (0, 1)
        # slopes of all edges stay within M + n of the template, so within 2n^2 + n
        for u, v in G.edges():
            if u in emb.coords and emb.coords[u][0] != emb.coords[v][0]:
                s = slope(Point2(*emb.coords[u]), Point2(*emb.coords[v]))
                if tuple(sorted((u, v))) in emb.correspondence:
                    assert abs(s) <= emb.template.M + n <= 2 * n * n + n


def test_long_fan_embeds_without_recursion():
    # apex 0 over the path 1..1099: the contracted tree is a 1000-level chain
    n = 1100
    G = PlaneTriangulation(range(n), [(0, i, i + 1) for i in range(1, n - 1)], range(n))
    a = shedding_sequence(G, G.boundary[0], G.boundary[1])
    emb = grid_embed(G, a, audit=False)
    assert check_grid_bounds(emb, n).passed


def test_grid_embed_deterministic():
    G = gen_stacked(40, 11)
    a = shedding_sequence(G, 0, 1)
    e1 = grid_embed(G, a)
    e2 = grid_embed(G, a)
    assert e1.coords == e2.coords
    assert e1.audit == e2.audit


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
        ys = [p.y for p in coords.values()]
        assert min(ys) == 0
