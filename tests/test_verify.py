"""Certificates: face bijection, boundary convexity, lift convexity, grid bounds."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

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
from shedpoly.embedding import grid_embed
from shedpoly.exactgeom import Point3
from shedpoly.griddiam import gen_grid_triangulation, grid_shedding, tau_profile
from shedpoly.lifting import LiftedPolyhedron, lift, truncate_to_polytope
from shedpoly.triangulation import (
    PlaneTriangulation,
    deletion_trace,
    shedding_sequence,
)
from shedpoly.verify import (
    Certificate,
    check_face_isomorphic,
    check_grid_bounds,
    check_lift_convex,
    check_projectively_convex,
    lift_convex_globally,
    report,
    segments_intersect,
)


def embed_of(G):
    a = shedding_sequence(G, G.boundary[0], G.boundary[1])
    return grid_embed(G, a), a


def instances():
    for G in (triangle(), split_square(), stacked_k4(), pentagon_fan(),
              gen_stacked(7, 2), gen_stacked(20, 5)):
        emb, a = embed_of(G)
        yield G, emb, a
    for p, q, ell, seed in ((4, 4, 2, 3), (5, 5, 3, 7)):
        gt = gen_grid_triangulation(p, q, ell, seed)
        a = grid_shedding(gt).sequence
        yield gt.T, grid_embed(gt.T, a), a


# -- plane drawings --------------------------------------------------------------


def dart():
    """Quad 0,1,2,3 with reflex corner 3; only the 1-3 diagonal stays inside."""
    coords = {0: (0, 0), 1: (10, 0), 2: (5, 8), 3: (5, 2)}
    with_02 = PlaneTriangulation(range(4), [(0, 1, 2), (0, 2, 3)], (0, 1, 2, 3))
    with_13 = PlaneTriangulation(range(4), [(0, 1, 3), (1, 2, 3)], (0, 1, 2, 3))
    return coords, with_02, with_13


def test_segments_intersect_basics():
    from shedpoly.exactgeom import Point2 as P

    assert segments_intersect(P(0, 0), P(4, 4), P(0, 4), P(4, 0))
    assert segments_intersect(P(0, 0), P(4, 0), P(2, 0), P(2, 5))  # touch
    assert segments_intersect(P(0, 0), P(4, 0), P(2, 0), P(6, 0))  # overlap
    assert not segments_intersect(P(0, 0), P(4, 0), P(0, 1), P(4, 1))
    assert not segments_intersect(P(0, 0), P(1, 0), P(2, 0), P(3, 0))


def test_face_iso_on_own_rational_drawing():
    for G in (triangle(), split_square(), stacked_k4(), pentagon_fan(), gen_stacked(7, 2)):
        a = shedding_sequence(G, G.boundary[0], G.boundary[1])
        cert = check_face_isomorphic(G, oracles.rational_embed(G, a))
        assert cert.passed, cert.line()


def test_face_iso_on_grid_drawings():
    for G, emb, _ in instances():
        cert = check_face_isomorphic(G, emb.coords)
        assert cert.passed, cert.line()
        assert cert.kind == "face-isomorphic"
        assert cert.witness is None


def test_face_iso_flipped_diagonal_fails():
    coords, with_02, with_13 = dart()
    assert check_face_isomorphic(with_13, coords).passed
    cert = check_face_isomorphic(with_02, coords)
    assert not cert.passed
    assert cert.witness == (0, 2, 3)  # the face drawn clockwise


def test_face_iso_rejects_coincident_and_missing_vertices():
    G = split_square()
    emb, _ = embed_of(G)
    squashed = dict(emb.coords)
    squashed[3] = squashed[1]
    cert = check_face_isomorphic(G, squashed)
    assert not cert.passed and cert.witness == (1, 3)

    short = dict(emb.coords)
    del short[2]
    assert not check_face_isomorphic(G, short).passed

    bad = two_triangles_pinched()
    cert = check_face_isomorphic(bad, {v: (v, v * v) for v in bad.vertices})
    assert not cert.passed and "not a triangulated disk" in cert.detail


def spiral_fan():
    """A fan whose rim wraps around the apex; every face is ccw but the
    outer cycle crosses itself."""
    G = PlaneTriangulation(range(10), [(0, i, i + 1) for i in range(1, 9)],
                           tuple(range(10)))
    coords = {0: (0, 0), 1: (5, 0), 2: (0, 6), 3: (-7, 0), 4: (0, -8),
              5: (9, 0), 6: (0, 10), 7: (-11, 0), 8: (0, -12), 9: (13, 1)}
    return G, coords


def test_face_iso_catches_self_crossing_boundary():
    G, coords = spiral_fan()
    cert = check_face_isomorphic(G, coords)
    assert not cert.passed
    assert cert.detail == "outer cycle self-intersects"
    assert cert.witness == ((1, 2), (9, 0))


def test_face_iso_allows_flat_boundary_vertex():
    # rim vertex 3 sits on the segment between its boundary neighbors
    G = pentagon_fan()
    coords = {0: (0, -1), 1: (6, 0), 2: (6, 6), 3: (3, 3), 4: (2, 2)}
    assert check_face_isomorphic(G, coords).passed


def test_face_iso_agrees_with_crossing_oracle():
    cases = []
    for G, emb, a in instances():
        cases.append((G, emb.coords))
        if G.n <= 12:
            cases.append((G, oracles.rational_embed(G, a)))
    coords, with_02, with_13 = dart()
    cases += [(with_02, coords), (with_13, coords)]
    cases.append(spiral_fan())
    G = pentagon_fan()
    cases.append((G, {0: (0, -1), 1: (6, 0), 2: (6, 6), 3: (3, 3), 4: (2, 2)}))
    emb, _ = embed_of(split_square())
    warped = dict(emb.coords)
    warped[3] = (warped[1][0], warped[2][1])  # drags an edge across another
    cases.append((split_square(), warped))
    for G, coords in cases:
        want = oracles.straight_line_plane(G, coords)
        got = check_face_isomorphic(G, coords).passed
        assert got == want, f"n={G.n}: certificate {got}, oracle {want}"


# -- projective convexity --------------------------------------------------------


def test_projectively_convex_slope_examples():
    # chain slopes 3, 1, -2: strictly decreasing
    ok = check_projectively_convex(
        [(0, 0), (4, 0), (2, 4), (1, 3)], ((0, 0), (4, 0))
    )
    assert ok.passed and ok.detail == "3 chain edges, slopes strictly decreasing"
    # chain slopes 3, 3, -2: the repeat is not a strict decrease
    bad = check_projectively_convex(
        [(0, 0), (5, 0), (2, 6), (1, 3)], ((0, 0), (5, 0))
    )
    assert not bad.passed
    assert bad.witness == ((1, 3), (2, 6))
    assert bad.detail == "edge slopes not strictly decreasing"


def test_projectively_convex_rejects_bad_normal_form():
    tri = [(0, 0), (4, 0), (2, 4)]
    assert not check_projectively_convex(tri, ((0, 0), (2, 4))).passed
    assert not check_projectively_convex(
        [(0, 0), (4, 0), (2, -4)], ((0, 0), (4, 0))
    ).passed
    # x does not strictly increase along the chain
    folded = check_projectively_convex(
        [(0, 0), (4, 0), (1, 5), (2, 3)], ((0, 0), (4, 0))
    )
    assert not folded.passed and folded.detail == "chain not strictly x-monotone"
    # fractional coordinates go through the same exact path
    frac = check_projectively_convex(
        [(0, 0), (Fraction(7, 2), 0), (2, Fraction(9, 4)), (1, 2)],
        ((0, 0), (Fraction(7, 2), 0)),
    )
    assert frac.passed


def test_every_drawn_prefix_is_projectively_convex():
    for G, emb, a in instances():
        trace = deletion_trace(G, a)
        base = (emb.coords[a.order[0]], emb.coords[a.order[1]])
        for i in range(3, G.n + 1):
            cyc = [emb.coords[v] for v in trace.boundary(i)]
            cert = check_projectively_convex(cyc, base)
            assert cert.passed, f"n={G.n} prefix {i}: {cert.line()}"


# -- lift convexity --------------------------------------------------------------


def flat_lift(G):
    emb, a = embed_of(G)
    pts = {v: Point3(x, y, 0) for v, (x, y) in emb.coords.items()}
    return LiftedPolyhedron(
        heights={v: 0 for v in G.vertices},
        points=pts,
        facets=G.triangles,
        m={v: 0 for v in G.vertices},
        sequence=a,
    )


def test_flat_lift_with_interior_vertex_fails():
    P = flat_lift(stacked_k4())
    local = check_lift_convex(P)
    glob = lift_convex_globally(P)
    assert not local.passed and not glob.passed
    assert local.witness in {(0, 3), (1, 3), (2, 3)}  # a coplanar interior edge


def test_flat_triangle_has_nothing_to_violate():
    # no shared edges at all: locally convex by vacuity, and globally too
    P = flat_lift(triangle())
    assert check_lift_convex(P).passed
    assert lift_convex_globally(P).passed


def test_stacked_k4_lift_convex_by_hand():
    G = stacked_k4()
    emb, a = embed_of(G)
    P = lift(emb, a)
    # the three base vertices stay in the z = 0 plane and the stacked vertex
    # rises to height 1, so each interior edge sees the opposite wing above it
    assert P.points[2].z == 1
    assert {P.points[v].z for v in (0, 1, 3)} == {0}
    cert = check_lift_convex(P)
    assert cert.passed, cert.line()
    assert lift_convex_globally(P).passed


def test_lift_certificates_on_corpus():
    for G, emb, a in instances():
        P = lift(emb, a)
        assert check_lift_convex(P).passed, f"n={G.n}"
        if G.n <= 50:
            assert lift_convex_globally(P).passed, f"n={G.n}"
        if len(G.boundary) == 3 and G.n > 3:
            Q = truncate_to_polytope(P, emb)
            assert check_lift_convex(Q).passed, f"truncated n={G.n}"
            assert lift_convex_globally(Q).passed, f"truncated n={G.n}"


def test_local_matches_global_on_small_lifts():
    probes = []
    for G, emb, a in instances():
        if G.n > 50:
            continue
        P = lift(emb, a)
        probes.append(P)
        last = a.order[-1]
        bumped = dict(P.heights)
        bumped[last] += 10 ** 12
        pts = dict(P.points)
        pts[last] = Point3(pts[last].x, pts[last].y, bumped[last])
        probes.append(replace(P, heights=bumped, points=pts))
    probes.append(flat_lift(stacked_k4()))
    probes.append(flat_lift(pentagon_fan()))
    for P in probes:
        local = check_lift_convex(P).passed
        glob = lift_convex_globally(P).passed
        assert local == glob
        assert local == oracles.lift_locally_convex(P)
        assert glob == oracles.lift_globally_convex(P)


def _with_height(P, v, z):
    pts = dict(P.points)
    pts[v] = Point3(pts[v].x, pts[v].y, z)
    return replace(P, heights={**P.heights, v: z}, points=pts)


def tampered_lifts():
    """Stacked n=40 lifts, plain and truncated, and a lattice-grid lift, each
    as built and with one height moved by +-1, +-10^6, or set to 0."""
    lifts = []
    for seed in (1, 2):
        emb, a = embed_of(gen_stacked(40, seed))
        P = lift(emb, a)
        lifts += [P, truncate_to_polytope(P, emb)]
    gt = gen_grid_triangulation(5, 5, 3, 7)
    a = grid_shedding(gt).sequence
    lifts.append(lift(grid_embed(gt.T, a), a))
    rng = random.Random(20261018)
    for P in lifts:
        yield P
        for v in rng.sample(sorted(P.points), 5):
            z = P.points[v].z
            for new in (z + 1, z - 1, z + 10**6, z - 10**6, 0):
                yield _with_height(P, v, new)


def test_lift_certificates_equal_fraction_reference_on_tampered_lifts():
    verdicts = set()
    for P in tampered_lifts():
        local = check_lift_convex(P)
        glob = lift_convex_globally(P)
        assert local == oracles.lift_convex_local_certificate(P)
        assert glob == oracles.lift_convex_global_certificate(P)
        verdicts.add((local.passed, glob.passed))
    assert verdicts == {(True, True), (False, False)}


# -- grid bounds -----------------------------------------------------------------


def test_grid_bounds_smallest_drawing():
    emb, _ = embed_of(triangle())
    assert (emb.width, emb.height) == (44, 132)
    cert = check_grid_bounds(emb, 3)
    assert cert.line() == "PASS grid-bounds: x 44 <= 108, y 132 <= 1944"
    tight = check_grid_bounds(emb, 1)
    assert not tight.passed and tight.witness == ("x", 44, 4)


def test_grid_bounds_on_corpus():
    for G, emb, a in instances():
        n = G.n
        assert check_grid_bounds(emb, n).passed
        P = lift(emb, a)
        cert = check_grid_bounds(P, n)
        assert cert.passed, cert.line()
        tau = tau_profile(G, a).tau
        assert cert.detail.endswith(f"(500n^8)^{tau}")
        assert oracles.max_height(P) <= (500 * n**8) ** n


def test_grid_bounds_catches_tall_lift():
    G = triangle()
    emb, a = embed_of(G)
    P = lift(emb, a)
    bound = (500 * 3**8) ** 3
    pts = dict(P.points)
    pts[2] = Point3(pts[2].x, pts[2].y, bound + 1)
    tall = replace(P, heights={**P.heights, 2: bound + 1}, points=pts)
    cert = check_grid_bounds(tall, 3)
    assert not cert.passed
    assert cert.witness == ("z", bound + 1, bound)


def test_report_lines_are_stable():
    emb, a = embed_of(split_square())
    P = lift(emb, a)
    certs = [
        check_face_isomorphic(split_square(), emb.coords),
        check_lift_convex(P),
        check_grid_bounds(emb, 4),
    ]
    text = report(certs)
    assert text == report(certs)
    assert text.count("\n") == 3
    for line in text.splitlines():
        assert line.startswith("PASS ")
    fail = Certificate("grid-bounds", False, ("x", 9, 4), "width exceeds 4n^3")
    assert fail.line() == "FAIL grid-bounds: width exceeds 4n^3 [witness: ('x', 9, 4)]"
