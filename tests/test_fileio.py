"""Text format round-trips, parse rejection, and OFF/OBJ export."""

from __future__ import annotations

from dataclasses import replace

import pytest

from shedpoly.corpus import (
    gen_stacked,
    pentagon_fan,
    split_square,
    stacked_k4,
    triangle,
)
from shedpoly.embedding import grid_embed
from shedpoly.exactgeom import Point3
from shedpoly.fileio import (
    MeshExport,
    ParseError,
    disk_from_facets,
    export_obj,
    export_off,
    read_off,
    read_triangulation,
    sequence_from_order,
    write_triangulation,
)
from shedpoly.griddiam import gen_grid_triangulation, grid_shedding
from shedpoly.lifting import lift, truncate_to_polytope
from shedpoly.triangulation import (
    InvalidTriangulation,
    PlaneTriangulation,
    shedding_sequence,
)
from shedpoly.verify import check_lift_convex, lift_convex_globally


def greedy(G):
    return shedding_sequence(G, G.boundary[0], G.boundary[1])


def canon(G: PlaneTriangulation) -> str:
    return write_triangulation(G)


def k4_lift(truncate: bool = True):
    G = stacked_k4()
    a = greedy(G)
    emb = grid_embed(G, a)
    P = lift(emb, a)
    return truncate_to_polytope(P, emb) if truncate else P


# -- triangulation documents -------------------------------------------------


def test_write_read_round_trip_is_byte_identical():
    cases = [
        (triangle(), None, None),
        (split_square(), None, None),
        (stacked_k4(), greedy(stacked_k4()).order, None),
        (pentagon_fan(), None, None),
        (gen_stacked(12, 4), greedy(gen_stacked(12, 4)).order, None),
    ]
    gt = gen_grid_triangulation(4, 4, 2, seed=5)
    cases.append((gt.T, grid_shedding(gt).sequence.order, (4, 4, 2)))
    for G, order, grid in cases:
        text = write_triangulation(G, order, grid)
        tf = read_triangulation(text)
        assert tf.text == text
        assert tf.order == order
        assert tf.grid == grid
        assert tf.G.vertices == G.vertices
        assert set(map(frozenset, tf.G.triangles)) == set(map(frozenset, G.triangles))
        assert tf.G.coords == G.coords


def test_read_is_insensitive_to_formatting_noise():
    G = split_square()
    messy = "\n".join(
        [
            "# a scrambled but legal document",
            "",
            "triangulation  n=4",
            "v 3 1 2",
            "v 1 2 1   # interleaved comment",
            "v 0 1 1",
            "v 2 2 2",
            "t 2 0 1",  # rotated
            "b 1 2 3 0",  # rotated cycle
            "t 2 3 0",
        ]
    )
    tf = read_triangulation(messy)
    assert tf.text == canon(G)
    assert tf.G.coords == G.coords


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "header"),
        ("t 0 1 2\nb 0 1 2\n", "header"),
        ("triangulation\nt 0 1 2\nb 0 1 2\n", "n="),
        ("triangulation n=3 n=3\nt 0 1 2\nb 0 1 2\n", "bad header field"),
        ("triangulation n=3 z=1\nt 0 1 2\nb 0 1 2\n", "bad header field"),
        ("triangulation n=3 p=2\nt 0 1 2\nb 0 1 2\n", "all of p=, q=, l="),
        ("triangulation n=x\nt 0 1 2\nb 0 1 2\n", "expected an integer"),
        ("triangulation n=3\n", "no triangles"),
        ("triangulation n=3\nt 0 1 2\n", "no boundary"),
        ("triangulation n=4\nt 0 1 2\nb 0 1 2\n", "n=4"),
        ("triangulation n=3\nt 0 1 1\nb 0 1 2\n", "degenerate"),
        ("triangulation n=3\nt 0 1 2\nq 9\nb 0 1 2\n", "unknown line tag"),
        ("triangulation n=3\nt 0 1 2\nb 0 1 2\nb 0 1 2\n", "more than one boundary"),
        ("triangulation n=3\nv 0 0 0\nt 0 1 2\nb 0 1 2\n", "cover exactly"),
        ("triangulation n=3\nv 0 0 0\nv 0 1 1\nv 1 9 9\nv 2 0 9\nt 0 1 2\nb 0 1 2\n", "two coordinate lines"),
        ("triangulation n=3\nt 0 1 2\nb 0 1 2\na 0 1\n", "permutation"),
        ("triangulation n=3 p=3 q=3 l=2\nt 0 1 2\nb 0 1 2\n", "does not match n"),
        ("triangulation n=3\nt 0 1 2\nb 0 2 1\n", "not a triangulated disk"),
        ("triangulation n=3\nt 0 1 2\ntriangulation n=3\nb 0 1 2\n", "more than one header"),
        ("triangulation n=4\nt 0 1 3\nt 1 2 3\nt 0 1 2\nb 0 1 2\n", "not a triangulated disk"),
    ],
)
def test_parse_rejects_malformed_documents(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        read_triangulation(text)


def test_sequence_from_order_replays_exactly():
    for G in (split_square(), stacked_k4(), gen_stacked(9, 1), gen_stacked(15, 8)):
        a = greedy(G)
        replayed = sequence_from_order(G, a.order)
        assert replayed == a  # same order, same per-step degrees, same base


def test_sequence_from_order_rejects_bad_orders():
    G = gen_stacked(8, 3)
    a = greedy(G)
    with pytest.raises(InvalidTriangulation, match="permutation"):
        sequence_from_order(G, a.order[:-1])
    # base pair that is not a boundary edge of the full disk
    interior = next(v for v in G.vertices if v not in G.boundary)
    with pytest.raises(InvalidTriangulation, match="boundary edge"):
        sequence_from_order(G, (interior,) + tuple(v for v in a.order if v != interior))
    # an interior vertex cannot shed before its cone is cleared
    bad = list(a.order)
    bad.remove(interior)
    bad.insert(len(bad), interior)  # force it last; must fail unless already legal
    if bad != list(a.order):
        with pytest.raises(InvalidTriangulation, match="not a shedding vertex"):
            sequence_from_order(G, tuple(bad))


# -- OFF / OBJ export ----------------------------------------------------------


def test_truncated_k4_off_counts():
    mesh = export_off(k4_lift())
    assert isinstance(mesh, MeshExport)
    assert (mesh.nv, mesh.nf, mesh.ne) == (4, 4, 6)
    assert f"{mesh.nv} {mesh.nf} {mesh.ne}" in mesh.text
    assert str(mesh) == mesh.text
    # self-describing: order and top facet travel as comments
    assert "# a " in mesh.text
    assert "# top " in mesh.text


def test_off_writes_heights_in_full_decimal():
    T = k4_lift()
    big = 32702465
    tall = replace(
        T,
        heights={v: h * big for v, h in T.heights.items()},
        points={v: Point3(p.x, p.y, p.z * big) for v, p in T.points.items()},
    )
    text = export_off(tall).text
    assert "32702465" in text
    assert "e" not in text.lower().replace("off", "")  # no scientific notation
    assert "." not in text
    pts, facets, _ = read_off(text)
    assert any(p.z == big for p in pts.values())
    back = replace(tall, heights={i: p.z for i, p in pts.items()}, points=pts, facets=facets)
    assert check_lift_convex(back).passed
    assert lift_convex_globally(back).passed


def test_off_round_trip_preserves_geometry():
    for P in (k4_lift(truncate=False), k4_lift(truncate=True)):
        text = export_off(P).text.replace("OFF\n", "OFF\n# made for the round-trip test\n", 1)
        pts, facets, comments = read_off(text)
        assert "made for the round-trip test" in comments
        ids = sorted(P.points)
        for i, v in enumerate(ids):
            assert pts[i] == P.points[v]
        index = {v: i for i, v in enumerate(ids)}
        assert facets == tuple(tuple(index[v] for v in t) for t in P.facets)


def test_obj_has_same_data_one_based():
    P = k4_lift()
    obj = export_obj(P)
    vlines = [l for l in obj.splitlines() if l.startswith("v ")]
    flines = [l for l in obj.splitlines() if l.startswith("f ")]
    assert len(vlines) == 4 and len(flines) == 4
    assert all(min(int(t) for t in l.split()[1:]) >= 1 for l in flines)
    off = export_off(P)
    off_faces = [l for l in off.text.splitlines() if l.startswith("3 ")]
    shifted = ["f " + " ".join(str(int(t) + 1) for t in l.split()[1:]) for l in off_faces]
    assert shifted == flines


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3 0 0\n", "OFF"),
        ("OFF\n", "counts"),
        ("OFF\n1 0\n", "counts"),
        ("OFF\n2 0 0\n0 0 0\n", "vertex and"),
        ("OFF\n1 0 0\n0 0\n", "x y z"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n", "face line"),
        ("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n", "out of range"),
        ("OFF\n3 1 2\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "edges"),
    ],
)
def test_read_off_rejects_malformed(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        read_off(text)


def test_read_off_edge_count_zero_is_wildcard():
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    pts, facets, _ = read_off(text)
    assert facets == ((0, 1, 2),)


# -- rebuilding disks from face lists ------------------------------------------


def test_disk_from_facets_recovers_split_square():
    G = split_square()
    got = disk_from_facets(G.triangles)
    assert canon(got) == canon(PlaneTriangulation(G.vertices, G.triangles, G.boundary))


def test_disk_from_facets_recovers_generated_instances():
    for G in (pentagon_fan(), gen_stacked(14, 2), gen_grid_triangulation(4, 3, 2, 1).T):
        got = disk_from_facets(G.triangles)
        bare = PlaneTriangulation(G.vertices, G.triangles, G.boundary)
        assert canon(got) == canon(bare)


def test_disk_from_facets_rejects_non_disks():
    tetra = ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0))
    with pytest.raises(ParseError, match="closed surface"):
        disk_from_facets(tetra)
    with pytest.raises(ParseError, match="cycle"):
        disk_from_facets(((0, 1, 2), (3, 4, 5)))
    flipped = (split_square().triangles[0], tuple(reversed(split_square().triangles[1])))
    with pytest.raises(ParseError):
        disk_from_facets(flipped)
