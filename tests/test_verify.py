"""Certificates: face bijection, boundary convexity, lift convexity, grid bounds."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shedpoly import cli, verify
from shedpoly.corpus import gen_stacked
from shedpoly.embedding import grid_embed
from shedpoly.exactgeom import Point2, Point3, orient2d, plane_through
from shedpoly.fileio import ParseError, read_off, write_triangulation
from shedpoly.griddiam import (
    gen_grid_triangulation,
    grid_shedding,
    uniform_grid_triangulation,
)
from shedpoly.lifting import LiftedPolyhedron, lift, truncate_to_polytope
from shedpoly.triangulation import (
    PlaneTriangulation,
    deletion_trace,
    rot_min_first,
    shedding_sequence,
    validate,
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
from test_golden import failing_documents, pentagram_wheel
from test_golden import instances as golden_instances
from test_golden import run as golden_run
from shapes import pentagon_fan, split_square, stacked_k4, triangle, two_triangles_pinched


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
    cert = check_grid_bounds(emb.coords, 3)
    assert cert.line() == "PASS grid-bounds: x 44 <= 108, y 132 <= 1944"
    tight = check_grid_bounds(emb.coords, 1)
    assert not tight.passed and tight.witness == ("x", 44, 4)


def test_grid_bounds_on_corpus():
    for G, emb, a in instances():
        n = G.n
        assert check_grid_bounds(emb.coords, n).passed
        P = lift(emb, a)
        cert = check_grid_bounds(P, n)
        assert cert.passed, cert.line()
        tau = oracles.tau_by_longest_path(G, a.order)
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
        check_grid_bounds(emb.coords, 4),
    ]
    text = report(certs)
    assert text == report(certs)
    assert text.count("\n") == 3
    for line in text.splitlines():
        assert line.startswith("PASS ")
    fail = Certificate("grid-bounds", False, ("x", 9, 4), "width exceeds 4n^3")
    assert fail.line() == "FAIL grid-bounds: width exceeds 4n^3 [witness: ('x', 9, 4)]"


# -- fast proofs against the full scans ------------------------------------------
#
# check_face_isomorphic and lift_convex_globally first try an O(n) proof that
# can only answer PASS, and cli._prefix_convexity proves the prefixes before
# the first one the chain walk flags; everything else goes to the full scans
# (_face_isomorphic_scan, _lift_convex_globally_scan, cli._prefix_scan).  The
# public certificates must equal the scans' on every input.


def fan(n):
    return PlaneTriangulation(range(n), [(0, i, i + 1) for i in range(1, n - 1)], range(n))


def ladder(k):
    return uniform_grid_triangulation(k, 2).T


def assert_paths_agree(G, coords, a, P=None):
    assert check_face_isomorphic(G, coords) == verify._face_isomorphic_scan(G, coords)
    assert cli._prefix_convexity(coords, a) == cli._prefix_scan(coords, a, 3)
    if P is not None:
        assert lift_convex_globally(P) == verify._lift_convex_globally_scan(P)


def _moved(P, coords):
    pts = {v: Point3(*coords[v], p.z) for v, p in P.points.items()}
    return replace(P, points=pts)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder")),
    size=st.integers(4, 24),
    seed=st.integers(0, 10**6),
    edge=st.integers(0, 10**6),
    flip=st.booleans(),
    edit=st.sampled_from(("none", "height", "move", "swap", "flat", "mirror")),
    pick=st.integers(0, 10**6),
    amount=st.sampled_from((1, -1, 7, -10**6, 10**6, 10**12)),
)
def test_fast_proofs_equal_full_scans_on_random_disks(
    shape, size, seed, edge, flip, edit, pick, amount
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
    P = lift(emb, a)
    if len(b) == 3:
        P = truncate_to_polytope(P, emb)
    coords = {w: (2 * x, 2 * y) for w, (x, y) in emb.coords.items()}
    P = _moved(P, coords)
    assert_paths_agree(G, coords, a, P)
    assert check_face_isomorphic(G, coords).passed
    assert lift_convex_globally(P).passed
    w = G.vertices[pick % G.n]
    if edit == "height":
        P = _with_height(P, w, P.points[w].z + amount)
    elif edit == "move":
        x, y = coords[w]
        coords[w] = (x + amount * (pick % 3 - 1), y + amount)
    elif edit == "swap":
        w2 = G.vertices[(pick // G.n) % G.n]
        coords[w], coords[w2] = coords[w2], coords[w]
    elif edit == "flat":  # a boundary vertex onto the segment of its neighbours
        j = pick % len(b)
        (x1, y1), (x2, y2) = coords[b[j - 1]], coords[b[(j + 1) % len(b)]]
        coords[b[j]] = ((x1 + x2) // 2, (y1 + y2) // 2)
    elif edit == "mirror":
        coords = {w: (-x, y) for w, (x, y) in coords.items()}
    assert_paths_agree(G, coords, a, _moved(P, coords))


def test_fast_proofs_equal_full_scans_on_hand_made_drawings():
    wheel, star = pentagram_wheel()
    a = shedding_sequence(wheel, 0, 1)
    spiral, coords = spiral_fan()
    rows = [
        (wheel, star, a),
        (spiral, coords, shedding_sequence(spiral, 0, 1)),
        (pentagon_fan(), {0: (0, -1), 1: (6, 0), 2: (6, 6), 3: (3, 3), 4: (2, 2)},
         shedding_sequence(pentagon_fan(), 0, 1)),
    ]
    # every boundary vertex of a convex pentagon collinear with its neighbours
    # in turn: a flat corner must leave the proof and still pass the scan
    for j in range(5):
        pent = {0: (0, 0), 1: (4, 0), 2: (6, 4), 3: (2, 8), 4: (-2, 4)}
        pent[j] = ((pent[(j - 1) % 5][0] + pent[(j + 1) % 5][0]) // 2,
                   (pent[(j - 1) % 5][1] + pent[(j + 1) % 5][1]) // 2)
        rows.append((pentagon_fan(), pent, shedding_sequence(pentagon_fan(), 0, 1)))
    for G, xy, seq in rows:
        assert_paths_agree(G, xy, seq)
    # the pentagram: every face ccw and every turn left, but it winds twice
    assert not verify._convex_disk_drawing(wheel, star)
    assert not check_face_isomorphic(wheel, star).passed
    assert check_face_isomorphic(pentagon_fan(), rows[2][1]).passed
    # lifted over the pentagram, the hub below the rim: every crease is
    # strict, yet vertex 3 is below the plane of face (0, 1, 5)
    pts = {w: Point3(x, y, 0 if w == 5 else 1) for w, (x, y) in star.items()}
    P = LiftedPolyhedron({w: p.z for w, p in pts.items()}, pts, wheel.triangles, {}, None)
    assert check_lift_convex(P).passed
    glob = lift_convex_globally(P)
    assert glob == verify._lift_convex_globally_scan(P) and not glob.passed


def test_fast_proofs_equal_full_scans_on_off_frame_inputs():
    G = gen_stacked(12, 3)
    emb, a = embed_of(G)
    Q = truncate_to_polytope(lift(emb, a), emb)
    b1, b2, _ = G.boundary
    inner = next(v for v in a.order[3:] if v not in G.boundary)
    # a top facet that is not the surface's boundary triangle
    top = (b1, b2, inner)
    lifts = [replace(Q, facets=Q.facets[:-1] + (top,), truncated=top)]
    # a lifted point that no facet uses, below the surface
    spare = max(Q.points) + 1
    lifts.append(replace(Q, points={**Q.points, spare: Point3(*emb.coords[inner], 0)}))
    for P in lifts:
        glob = lift_convex_globally(P)
        assert glob == verify._lift_convex_globally_scan(P) and not glob.passed
    # an interior vertex dragged below the base: the outer cycle is still
    # strictly convex, but some faces turn clockwise
    far = {**emb.coords, inner: (0, -10**9)}
    cert = check_face_isomorphic(G, far)
    assert cert == verify._face_isomorphic_scan(G, far) and not cert.passed
    # the whole drawing one unit up: every chain convex, base off the x-axis
    up = {v: (x, y + 1) for v, (x, y) in emb.coords.items()}
    assert cli._prefix_convexity(up, a) == cli._prefix_scan(up, a, 3)
    assert not cli._prefix_convexity(up, a).passed
    # a link recorded backwards: the walk gives up at prefix 4, the scan of
    # the recorded cycles decides
    bad = replace(a, links=(a.link(4)[::-1],) + a.links[1:])
    assert cli._prefix_convexity(emb.coords, bad) == cli._prefix_scan(emb.coords, bad, 3)


def test_strict_convexity_counts_turning_with_horizontal_edges():
    square = [Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]
    assert verify._strictly_convex(square)
    assert not verify._strictly_convex(square[::-1])  # cw
    flat = [Point2(0, 0), Point2(2, 0), Point2(4, 0), Point2(2, 3)]
    assert not verify._strictly_convex(flat)
    # a pentagram with a horizontal edge: all turns left, total turning 4*pi
    star = [Point2(0, 0), Point2(10, 0), Point2(2, 6), Point2(5, -3), Point2(8, 6)]
    assert all(orient2d(star[i - 1], star[i], star[(i + 1) % 5]) == 1 for i in range(5))
    assert not verify._strictly_convex(star)


def test_verify_reports_equal_full_scan_reports_on_tampered_documents(monkeypatch):
    docs = dict(failing_documents())
    for label, doc in golden_instances().items():
        if label in ("stacked-40", "fan-40", "grid-5x5-l3", "pentagon-fan"):
            docs[f"{label} drawn"] = golden_run(["embed"], doc)[1]
            docs[f"{label} off"] = golden_run(["lift"], doc)[1]
            docs[f"{label} truncated"] = golden_run(["lift", "--truncate"], doc)[1]
    fast = {label: golden_run(["verify"], doc) for label, doc in docs.items()}
    # every certificate takes its full scan
    monkeypatch.setattr(verify, "_convex_disk_drawing", lambda G, coords: False)
    monkeypatch.setattr(verify, "_crease_pass", lambda P: None)
    monkeypatch.setattr(cli, "first_faulty_prefix", lambda coords, a: (3, None))
    for label, doc in docs.items():
        assert golden_run(["verify"], doc) == fast[label], label


class ScanCalled(AssertionError):
    pass


def _refuse(*args):
    raise ScanCalled("a full scan ran")


@pytest.mark.parametrize(
    "label, start, lift_argv",
    [
        ("stacked-160", ("gen-stacked", "160", "--seed", "0"), ("lift", "--truncate")),
        ("grid-12x12-l3", ("gen-grid", "12", "12", "3", "--seed", "0"), ("lift",)),
        ("fan-200", None, ("lift",)),
        ("ladder-100x2", None, ("lift",)),
    ],
)
def test_benchmark_shaped_outputs_take_only_the_fast_proofs(monkeypatch, label, start, lift_argv):
    if start is not None:
        doc = golden_run(list(start))[1]
    elif label == "fan-200":
        doc = write_triangulation(fan(200))
    else:
        doc = write_triangulation(ladder(100))
    monkeypatch.setattr(verify, "_face_isomorphic_scan", _refuse)
    monkeypatch.setattr(verify, "_lift_convex_globally_scan", _refuse)
    monkeypatch.setattr(verify, "_lift_convex_scan", _refuse)
    monkeypatch.setattr(cli, "check_projectively_convex", _refuse)
    code, drawn, audit = golden_run(["embed", "--audit"], doc)
    assert code == 0 and "FAIL" not in audit
    code, off, audit = golden_run(list(lift_argv) + ["--audit"], doc)
    assert code == 0 and "FAIL" not in audit
    for text, lines in ((drawn, 5), (off, 7)):
        code, report_text, _ = golden_run(["verify"], text)
        assert code == 0
        assert report_text.count("PASS ") == lines == len(report_text.splitlines())


def test_corpus_outputs_take_only_the_fast_proofs(monkeypatch):
    monkeypatch.setattr(verify, "_face_isomorphic_scan", _refuse)
    monkeypatch.setattr(verify, "_lift_convex_globally_scan", _refuse)
    monkeypatch.setattr(cli, "_prefix_scan", lambda coords, a, start: _refuse()
                        if start <= a.n else cli.Certificate("projectively-convex", True))
    for G, emb, a in instances():
        assert check_face_isomorphic(G, emb.coords).passed
        assert cli._prefix_convexity(emb.coords, a).passed
        P = lift(emb, a)
        assert lift_convex_globally(P).passed
        if len(G.boundary) == 3 and G.n > 3:
            assert lift_convex_globally(truncate_to_polytope(P, emb)).passed
    for G in (fan(30), ladder(12), gen_stacked(60, 4)):
        emb, a = embed_of(G)
        assert check_face_isomorphic(G, emb.coords).passed
        assert cli._prefix_convexity(emb.coords, a).passed
        assert lift_convex_globally(lift(emb, a)).passed


# -- shared values: one parsed surface disk, one plane per facet ------------------


def _surface(P):
    top = P.truncated
    return [t if top is None else (t[2], t[1], t[0]) for t in P.facets if t != top]


def test_lift_proof_reads_the_surface_disk():
    # surface_disk is the validated disk of the surface facets (turned back to
    # ccw after truncation), built once per lift; the lift proof that reads
    # it agrees with the full scan as built, with an interior height lowered
    # by 10^6 (replace() makes a new lift, so no cached disk or plane carries
    # over), and with the rim triangle added as a surface facet (the surface
    # then is no disk, so the proof does not apply)
    G = gen_stacked(20, 5)
    for truncate in (False, True):
        emb, a = embed_of(G)
        P = lift(emb, a)
        rim = G.boundary
        if truncate:
            P = truncate_to_polytope(P, emb)
            rim = P.truncated[::-1]
        disk = P.surface_disk
        assert disk is P.surface_disk and not validate(disk)
        assert disk.triangles == tuple(_surface(P))
        assert {rot_min_first(t) for t in disk.triangles} == {
            rot_min_first(t) for t in G.triangles
        }
        assert rot_min_first(disk.boundary) == rot_min_first(G.boundary)
        inner = a.order[-1]
        with_rim = replace(P, facets=P.facets + (tuple(rim),))
        with pytest.raises(ParseError):
            with_rim.surface_disk
        for Q, passed in (
            (P, True),
            (_with_height(P, inner, P.points[inner].z - 10**6), False),
            (with_rim, False),
        ):
            want = lift_convex_globally(Q)
            assert want == verify._lift_convex_globally_scan(Q)
            assert want.passed == passed


@cache
def off_lifts():
    """Untampered OFF lifts: stacked (plain and truncated), fan, ladder, grid."""
    docs = []
    for G in (gen_stacked(14, 3), fan(9), ladder(5)):
        doc = write_triangulation(G)
        docs.append(golden_run(["lift"], doc)[1])
        if len(G.boundary) == 3:
            docs.append(golden_run(["lift", "--truncate"], doc)[1])
    grid = golden_run(["gen-grid", "5", "5", "3", "--seed", "2"])[1]
    docs.append(golden_run(["lift"], grid)[1])
    return tuple(docs)


def _off_text(points, facets, comments):
    lines = ["OFF", *(f"# {c}" for c in comments), f"{len(points)} {len(facets)} 0"]
    lines += [f"{p.x} {p.y} {p.z}" for _, p in sorted(points.items())]
    lines += [f"3 {a} {b} {c}" for a, b, c in facets]
    return "\n".join(lines) + "\n"


def _outcome(verify_off, text):
    try:
        return verify_off(text)
    except Exception as exc:  # both sides must raise the same error
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, 10**6),
    tamper=st.sampled_from(("none", "height", "reverse", "drop", "top")),
    pick=st.integers(0, 10**6),
    up=st.booleans(),
)
def test_verify_off_equals_the_unshared_reference_on_tampered_lifts(which, tamper, pick, up):
    # the certificates of one OFF verify share the parsed disk, its cached
    # validate and drawing verdicts and the facet planes; the reference
    # parses everything afresh for every certificate
    docs = off_lifts()
    points, facets, comments = read_off(docs[which % len(docs)])
    points, facets = dict(points), list(facets)
    if tamper == "height":
        v = pick % len(points)
        x, y, z = points[v]
        points[v] = Point3(x, y, z + (1 if up else -1))
    elif tamper == "reverse":
        facets[pick % len(facets)] = facets[pick % len(facets)][::-1]
    elif tamper == "drop":
        del facets[pick % len(facets)]
    elif tamper == "top":
        a, b, c = facets[pick % len(facets)]
        comments = [line for line in comments if line.split()[:1] != ["top"]]
        comments.append(f"top {b} {c} {a}" if up else f"top {a} {b} {c}")
    text = _off_text(points, facets, comments)
    assert _outcome(cli._verify_off, text) == _outcome(oracles.verify_off_unshared, text)


# -- the crease pass: one verdict per lift for both lift certificates -------------


def assert_lift_paths_agree(P):
    """Both lift certificates equal their full scans exactly (kind, passed,
    witness and detail); returns the crease pass's verdict on P."""
    assert check_lift_convex(P) == verify._lift_convex_scan(P)
    assert lift_convex_globally(P) == verify._lift_convex_globally_scan(P)
    return verify._strict_creases(P)


def benchmark_shaped_lifts():
    """fan-200, ladder-100x2, stacked-160 (plain and truncated) and a 12x12
    grid, each drawn and lifted along the sequence the CLI uses."""
    for label, G in (("fan-200", fan(200)), ("ladder-100x2", ladder(100)),
                     ("stacked-160", gen_stacked(160, 0))):
        emb, a = embed_of(G)
        P = lift(emb, a)
        yield label, P
        if len(G.boundary) == 3:
            yield f"{label} truncated", truncate_to_polytope(P, emb)
    gt = gen_grid_triangulation(12, 12, 3, 0)
    a = grid_shedding(gt).sequence
    yield "grid-12x12-l3", lift(grid_embed(gt.T, a), a)


def test_lift_certificates_equal_their_full_scans_on_the_corpus():
    from test_acceptance import corpus

    lifts = list(benchmark_shaped_lifts())
    for item in corpus():
        lifts.append((item.label, item.P))
        if len(item.G.boundary) == 3 and item.G.n > 3:
            lifts.append((f"{item.label} truncated", truncate_to_polytope(item.P, item.emb)))
    for label, P in lifts:
        # replace() gives a lift with no kept verdict, planes or disk
        edges = assert_lift_paths_agree(replace(P))
        assert edges is not None and check_lift_convex(P).passed, label


def _scaled_heights(P, k):
    pts = {v: Point3(p.x, p.y, k * p.z) for v, p in P.points.items()}
    return replace(P, heights={v: p.z for v, p in pts.items()}, points=pts)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from(("stacked", "fan", "ladder", "grid")),
    size=st.integers(4, 30),
    seed=st.integers(0, 10**6),
    truncate=st.booleans(),
    mutation=st.sampled_from(("raise", "lower", "flat", "collinear", "top")),
    pick=st.integers(0, 10**6),
    amount=st.sampled_from((1, 7, 10**6)),
)
def test_crease_pass_equals_the_full_scan_on_mutated_lifts(
    shape, size, seed, truncate, mutation, pick, amount
):
    if shape == "grid":
        gt = gen_grid_triangulation(4 + size % 5, 4 + seed % 5, 2 + seed % 2, seed)
        G, a = gt.T, grid_shedding(gt).sequence
        emb = grid_embed(G, a)
    else:
        G = {"stacked": gen_stacked, "fan": lambda k, s: fan(k),
             "ladder": lambda k, s: ladder(max(2, k // 2))}[shape](size, seed)
        emb, a = embed_of(G)
    P = lift(emb, a)
    if truncate and len(G.boundary) == 3:
        P = truncate_to_polytope(P, emb)
    assert assert_lift_paths_agree(P) is not None
    third = P.surface_disk.third()
    interior = [e for e in third if e[::-1] in third]
    u, v = interior[pick % len(interior)]
    x = third[(v, u)]  # the far vertex across (u, v) from its facet u v w
    w = third[(u, v)]
    if mutation in ("raise", "lower"):
        z = P.points[x].z
        P = _with_height(P, x, z + amount if mutation == "raise" else z - amount)
    elif mutation == "flat":  # x onto the plane of u v w, exactly
        det, A, B, D = plane_through(P.points[u], P.points[v], P.points[w])
        X, Y, _ = P.points[x]
        P = _with_height(_scaled_heights(P, det), x, A * X + B * Y + D)
    elif mutation == "collinear":  # w onto the midpoint of u v
        coords = {t: (2 * p.x, 2 * p.y) for t, p in P.points.items()}
        coords[w] = (P.points[u].x + P.points[v].x, P.points[u].y + P.points[v].y)
        P = _moved(P, coords)
    else:  # a top comment naming a facet that is not the boundary triangle
        others = [t for t in P.facets if t != P.truncated]
        P = replace(P, truncated=others[pick % len(others)])
    edges = assert_lift_paths_agree(P)
    if mutation in ("flat", "collinear", "top"):
        assert edges is None  # no verdict: the scan reports
    if mutation == "flat":
        assert not check_lift_convex(P).passed
    elif mutation == "collinear":
        assert check_lift_convex(P).detail == "degenerate facet"


@pytest.mark.parametrize("label, calls", [("fan-200", 394), ("stacked-160", 1105)])
def test_off_verify_tests_each_crease_once(monkeypatch, label, calls):
    # one crease pass per lift: both wings of every interior edge (2 x 197
    # on fan-200); truncated stacked-160 adds the three top creases twice and
    # its 157 vertices under the top (2 x 471 + 2 x 3 + 157).  Testing the
    # creases in check_lift_convex and again in the lift proof took 591 and
    # 1576 calls.
    if label == "fan-200":
        off = golden_run(["lift"], write_triangulation(fan(200)))[1]
    else:
        doc = golden_run(["gen-stacked", "160", "--seed", "0"])[1]
        off = golden_run(["lift", "--truncate"], golden_run(["embed"], doc)[1])[1]
    tested = []
    real = verify.above_plane

    def counting(*args):
        tested.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "above_plane", counting)
    code, out, _ = golden_run(["verify"], off)
    assert code == 0 and out.count("PASS ") == 7
    assert len(tested) == calls
