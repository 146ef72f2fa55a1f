"""Text formats: the triangulation file grammar and OFF/OBJ mesh export.

Triangulation files are line oriented.  Blank lines and ``#`` comments are
ignored; the remaining lines are:

    triangulation n=<int> [p=<int> q=<int> l=<int>]
    v <id> <x> <y>
    t <a> <b> <c>
    b <v1> <v2> ... <vk>
    a <id> <id> ...

The header comes first; ``p q l`` appear together or not at all and mark a
lattice-grid instance.  ``v`` lines are optional but all-or-none, one per
vertex, integer coordinates.  ``t`` lines give the counterclockwise triangles,
``b`` the counterclockwise boundary cycle, ``a`` an optional shedding order.
The writer emits a canonical form -- vertices ascending, each triangle rotated
smallest-id-first and triangles sorted, the boundary cycle rotated to start at
its smallest id -- so any canonically written document round-trips
byte-identically through read + write.  A document only parses if the result
validates as a triangulated disk.  Triangle and coordinate integers go through
plain int(); only a line it rejects is re-read token by token to name the bad
one.

Mesh export is plain OFF (counts line with the true edge count, exact decimal
integer coordinates of arbitrary length, faces as index triples); the shedding
order and the truncation facet travel in ``#`` comment lines so a lift is
self-describing.  OBJ export carries identical data for viewers that prefer it.
Reading faces back into a disk, one face map (triangulation.face_map) gives
the boundary and becomes the rebuilt disk's third().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .exactgeom import Point3
from .lifting import LiftedPolyhedron
from .triangulation import (
    InvalidTriangulation,
    PlaneTriangulation,
    SheddingSequence,
    face_map,
    peel_order,
    rot_min_first,
    validate,
)


class ParseError(Exception):
    """Malformed or inconsistent input document."""


@dataclass(frozen=True)
class TriangulationFile:
    """Parsed triangulation document: the disk, and the optional extras."""

    G: PlaneTriangulation
    order: Optional[tuple[int, ...]] = None
    grid: Optional[tuple[int, int, int]] = None  # (p, q, l) header values

    @property
    def text(self) -> str:
        return write_triangulation(self.G, self.order, self.grid)


def _significant_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {tok!r}") from None


def read_triangulation(text: str) -> TriangulationFile:
    """Parse a triangulation document; the result always passes validate()."""
    lines = _significant_lines(text)
    if not lines or lines[0][0] != "triangulation":
        raise ParseError("first line must be a 'triangulation' header")
    header: dict[str, int] = {}
    for tok in lines[0][1:]:
        key, eq, val = tok.partition("=")
        if eq != "=" or key not in ("n", "p", "q", "l") or key in header:
            raise ParseError(f"bad header field {tok!r}")
        header[key] = _int(val, f"header {key}")
    if "n" not in header:
        raise ParseError("header must declare n=<vertex count>")
    grid_keys = {"p", "q", "l"} & set(header)
    if grid_keys and grid_keys != {"p", "q", "l"}:
        raise ParseError("grid header needs all of p=, q=, l=")

    coords: dict[int, tuple[int, int]] = {}
    triangles: list[tuple[int, int, int]] = []
    boundary: Optional[tuple[int, ...]] = None
    order: Optional[tuple[int, ...]] = None
    for toks in lines[1:]:
        tag, rest = toks[0], toks[1:]
        if tag == "v":
            if len(rest) != 3:
                raise ParseError(f"v line needs id x y, got {toks}")
            vid = _int(rest[0], "vertex id")
            if vid in coords:
                raise ParseError(f"vertex {vid} has two coordinate lines")
            try:
                coords[vid] = (int(rest[1]), int(rest[2]))
            except ValueError:
                coords[vid] = (_int(rest[1], "x"), _int(rest[2], "y"))
        elif tag == "t":
            if len(rest) != 3:
                raise ParseError(f"t line needs three ids, got {toks}")
            try:
                a, b, c = map(int, rest)
            except ValueError:
                a, b, c = (_int(r, "triangle id") for r in rest)
            if a == b or b == c or a == c:
                raise ParseError(f"degenerate triangle {a} {b} {c}")
            triangles.append((a, b, c))
        elif tag == "b":
            if boundary is not None:
                raise ParseError("more than one boundary line")
            boundary = tuple(_int(r, "boundary id") for r in rest)
        elif tag == "a":
            if order is not None:
                raise ParseError("more than one shedding-order line")
            order = tuple(_int(r, "order id") for r in rest)
        elif tag == "triangulation":
            raise ParseError("more than one header line")
        else:
            raise ParseError(f"unknown line tag {tag!r}")

    if not triangles:
        raise ParseError("no triangles")
    if boundary is None:
        raise ParseError("no boundary line")
    vertices = sorted(set(chain.from_iterable(triangles)))
    if len(vertices) != header["n"]:
        raise ParseError(
            f"header says n={header['n']} but triangles use {len(vertices)} vertices"
        )
    if coords and sorted(coords) != vertices:
        raise ParseError("coordinate lines must cover exactly the vertices used")
    if order is not None and sorted(order) != vertices:
        raise ParseError("shedding order is not a permutation of the vertices")
    grid = None
    if grid_keys:
        grid = (header["p"], header["q"], header["l"])
        if grid[0] * grid[1] != header["n"]:
            raise ParseError(f"grid header {grid[0]}x{grid[1]} does not match n={header['n']}")
    G = PlaneTriangulation(vertices, triangles, boundary, coords or None)
    bad = validate(G)
    if bad:
        raise ParseError(f"not a triangulated disk: {bad[0].code}: {bad[0].detail}")
    return TriangulationFile(G, order, grid)


def write_triangulation(
    G: PlaneTriangulation,
    order: Optional[Sequence[int]] = None,
    grid: Optional[tuple[int, int, int]] = None,
) -> str:
    """Canonical text form of a triangulation (see the module docstring)."""
    head = f"triangulation n={G.n}"
    if grid is not None:
        head += f" p={grid[0]} q={grid[1]} l={grid[2]}"
    lines = [head]
    if G.coords is not None:
        for v in G.vertices:
            x, y = G.coords[v]
            lines.append(f"v {v} {x} {y}")
    for t in sorted(rot_min_first(t) for t in G.triangles):
        lines.append(f"t {t[0]} {t[1]} {t[2]}")
    lines.append("b " + " ".join(str(v) for v in rot_min_first(G.boundary)))
    if order is not None:
        lines.append("a " + " ".join(str(v) for v in order))
    return "\n".join(lines) + "\n"


def sequence_from_order(G: PlaneTriangulation, order: Sequence[int]) -> SheddingSequence:
    """Peel G along a vertex order, checking the shedding invariant at every
    deletion (see triangulation.peel_order)."""
    return peel_order(G, order)


# -- mesh export -----------------------------------------------------------------


@dataclass(frozen=True)
class MeshExport:
    """An OFF document plus its counts (nv vertices, nf faces, ne edges)."""

    text: str
    nv: int
    nf: int
    ne: int

    def __str__(self) -> str:
        return self.text


def _edge_count(facets: Sequence[tuple[int, int, int]]) -> int:
    return len(
        {
            (u, v) if u < v else (v, u)
            for t in facets
            for u, v in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))
        }
    )


def export_off(P: LiftedPolyhedron) -> MeshExport:
    """OFF document for a lift: exact decimal coordinates, true edge count.

    The shedding order (when the lift carries one) and the truncation facet
    are recorded as comment lines in OFF vertex indices, so the document can
    be verified on its own.
    """
    ids = sorted(P.points)
    index = {v: i for i, v in enumerate(ids)}
    lines = ["OFF"]
    if P.sequence is not None:
        lines.append("# a " + " ".join(str(index[v]) for v in P.sequence.order))
    if P.truncated is not None:
        lines.append("# top " + " ".join(str(index[v]) for v in P.truncated))
    # Euler: the facets form a disk (V - E + F = 1), or a sphere once a top
    # facet closes it (V - E + F = 2)
    nv, nf = len(ids), len(P.facets)
    ne = nv + nf - (1 if P.truncated is None else 2)
    lines.append(f"{nv} {nf} {ne}")
    for v in ids:
        p = P.points[v]
        lines.append(f"{p.x} {p.y} {p.z}")
    for t in P.facets:
        lines.append(f"3 {index[t[0]]} {index[t[1]]} {index[t[2]]}")
    return MeshExport("\n".join(lines) + "\n", nv, nf, ne)


def export_obj(P: LiftedPolyhedron) -> str:
    """OBJ document with the same data as export_off (1-based indices)."""
    ids = sorted(P.points)
    index = {v: i + 1 for i, v in enumerate(ids)}
    lines = []
    for v in ids:
        p = P.points[v]
        lines.append(f"v {p.x} {p.y} {p.z}")
    for t in P.facets:
        lines.append(f"f {index[t[0]]} {index[t[1]]} {index[t[2]]}")
    return "\n".join(lines) + "\n"


def read_off(
    text: str,
) -> tuple[dict[int, Point3], tuple[tuple[int, int, int], ...], list[str]]:
    """Parse an OFF document: points by 0-based index, faces, comment lines.

    A nonzero edge count on the counts line must equal the faces' edges."""
    comments = [
        s.lstrip("#").strip()
        for s in text.splitlines()
        if s.lstrip().startswith("#")
    ]
    lines = _significant_lines(text)
    if not lines or lines[0] != ["OFF"]:
        raise ParseError("not an OFF document (missing OFF header line)")
    if len(lines) < 2 or len(lines[1]) != 3:
        raise ParseError("missing counts line")
    nv, nf, ne = (_int(tok, "counts") for tok in lines[1])
    body = lines[2:]
    if len(body) != nv + nf:
        raise ParseError(f"expected {nv} vertex and {nf} face lines, got {len(body)}")
    # int() on the whole line first; only a line it rejects goes token by
    # token through _int, which names the first bad token
    points: dict[int, Point3] = {}
    for i, toks in enumerate(body[:nv]):
        if len(toks) != 3:
            raise ParseError(f"vertex line needs x y z, got {toks}")
        try:
            points[i] = Point3(*map(int, toks))
        except ValueError:
            points[i] = Point3(*(_int(tok, "coordinate") for tok in toks))
    facets: list[tuple[int, int, int]] = []
    for toks in body[nv:]:
        if len(toks) != 4 or toks[0] != "3":
            raise ParseError(f"face line must read '3 i j k', got {toks}")
        try:
            t = (int(toks[1]), int(toks[2]), int(toks[3]))
        except ValueError:
            t = tuple(_int(tok, "face index") for tok in toks[1:])
        a, b, c = t
        if a not in points or b not in points or c not in points or a == b or b == c or a == c:
            raise ParseError(f"face indices out of range: {t}")
        facets.append(t)  # type: ignore[arg-type]
    if ne != 0 and ne != (true_ne := _edge_count(facets)):
        raise ParseError(f"counts line says {ne} edges, faces give {true_ne}")
    return points, tuple(facets), comments


def disk_from_facets(facets: Sequence[tuple[int, int, int]]) -> PlaneTriangulation:
    """Rebuild the triangulated disk whose ccw faces are the given triples.

    One face map of the triples (triangulation.face_map) does all the work:
    a directed edge whose reverse is in no face is a boundary edge, those
    edges must chain into a single cycle, and the map becomes the disk's
    third(), which validate() reads instead of building its own.  The
    result must pass validate().
    """
    third = face_map(facets)
    opened = [(u, v) for u, v in third if (v, u) not in third]
    succ = dict(opened)
    if len(succ) < len(opened):
        # name the vertex that the set of directed edges meets twice first
        directed = {(t[j], t[(j + 1) % 3]) for t in facets for j in range(3)}
        tails: set[int] = set()
        for u, v in directed:
            if (v, u) not in directed:
                if u in tails:
                    raise ParseError(f"vertex {u} has two outgoing boundary edges")
                tails.add(u)
    if not succ:
        raise ParseError("faces form a closed surface, not a disk")
    start = min(succ)
    cyc = [start]
    while True:
        nxt = succ.get(cyc[-1])
        if nxt is None:
            raise ParseError("boundary walk broke off")
        if nxt == start:
            break
        cyc.append(nxt)
        if len(cyc) > len(succ):
            raise ParseError("boundary edges form more than one cycle")
    if len(cyc) != len(succ):
        raise ParseError("boundary edges form more than one cycle")
    G = PlaneTriangulation(dict(third.keys()), facets, cyc)
    G._third = third
    bad = validate(G)
    if bad:
        raise ParseError(f"faces do not form a triangulated disk: {bad[0].code}")
    return G
