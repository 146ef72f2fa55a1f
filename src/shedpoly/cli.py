"""Command-line surface: generation, shedding, drawing, lifting, verification.

Commands read a triangulation document (or OFF mesh, for verify) from a file
argument or stdin, write their result to stdout, and compose into pipelines::

    shedpoly gen-grid 5 5 3 --seed 7 | shedpoly embed | shedpoly lift | shedpoly verify

Exit codes:

    0  success (all certificates passed)
    1  internal error (uncaught exception; always a bug)
    2  usage error (bad arguments, unreadable input file)
    3  parse error (malformed document)
    4  certificate failure (verify or --audit found a violation)
    5  domain error (valid syntax, impossible request: bad parameters,
       not a shedding order, instance too large for exhaustive search, ...)

Commands that produce geometry accept --audit to print their certificate
report to stderr; stdout stays machine-readable either way.  All randomness
is seeded through --seed flags, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from typing import Optional, Sequence

from .corpus import gen_stacked
from .embedding import first_faulty_prefix, grid_embed
from .exactgeom import GeometryError
from .fileio import (
    ParseError,
    TriangulationFile,
    _int,
    export_obj,
    export_off,
    read_off,
    read_triangulation,
    sequence_from_order,
    write_triangulation,
)
from .griddiam import (
    BadParams,
    GridTriangulation,
    TooLarge,
    gen_grid_triangulation,
    grid_shedding,
    min_tau_exhaustive,
    tau_profile,
)
from .lifting import (
    BoundaryNotTriangle,
    LiftedPolyhedron,
    NotSequentiallyConvex,
    lift,
    truncate_to_polytope,
)
from .triangulation import (
    InvalidTriangulation,
    PlaneTriangulation,
    SheddingSequence,
    rot_min_first,
    shedding_sequence,
)
from .verify import (
    Certificate,
    check_face_isomorphic,
    check_grid_bounds,
    check_lift_convex,
    check_projectively_convex,
    lift_convex_globally,
    report,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CERT = 4
EXIT_DOMAIN = 5


class UsageError(Exception):
    """Bad invocation that argparse cannot catch (unreadable file, ...)."""


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _sequence_for(tf: TriangulationFile) -> SheddingSequence:
    """The file's shedding order when present, else the greedy default."""
    if tf.order is not None:
        return sequence_from_order(tf.G, tf.order)
    return shedding_sequence(tf.G, tf.G.boundary[0], tf.G.boundary[1])


def _prefix_convexity(coords, a: SheddingSequence) -> Certificate:
    """One certificate summarizing check_projectively_convex over all prefix
    boundaries of the sequence.

    Fast proof.  With both base endpoints on the x-axis, the upper-chain walk
    of embedding.first_faulty_prefix proves every prefix before the first
    one it flags: an x-monotone chain with strictly decreasing slopes from
    lb to rb is strictly concave, so its other points are distinct and
    strictly above the base, which is everything check_projectively_convex
    asks of that prefix.  The scan then starts at the flagged prefix (or
    does not run), so its first failure, witness and text are unchanged.

    Why the walk reads the same boundaries as the scan.  Both read the one
    sequence a: the verifier's own re-peel (sequence_from_order on the parsed
    faces and order, the sequence the shedding-order certificate accepts),
    never the state of the command that drew the input.  The walk reads a's
    links, and so does the scan: boundary(i) is boundary(i - 1) with a_i
    put in place of the inner run of a_i's link, as UpperChain.splice puts
    it; so the walk's chain at step i is boundary(i) read clockwise from lb
    to rb, and the ccw cycle steps from lb straight to rb.  The walk shares
    UpperChain and slopes_decrease with grid_embed's audit; the differential tests compare it with the
    scan.
    """
    start = 3
    if coords[a.order[0]][1] == coords[a.order[1]][1] == 0:
        bad = first_faulty_prefix(coords, a)
        start = a.n + 1 if bad is None else bad[0]
    return _prefix_scan(coords, a, start)


def _prefix_scan(coords, a: SheddingSequence, start: int) -> Certificate:
    """_prefix_convexity's full scan of the prefixes start..n."""
    base = (coords[a.order[0]], coords[a.order[1]])
    for i in range(start, a.n + 1):
        cert = check_projectively_convex([coords[v] for v in a.boundary(i)], base)
        if not cert.passed:
            return Certificate(cert.kind, False, cert.witness, f"prefix {i}: {cert.detail}")
    return Certificate(
        "projectively-convex", True, None, f"all {a.n - 2} prefix boundaries convex"
    )


def _emit_report(certs: Sequence[Certificate], stream) -> int:
    stream.write(report(certs))
    return EXIT_OK if all(c.passed for c in certs) else EXIT_CERT


# -- commands --------------------------------------------------------------------


def cmd_gen_grid(args) -> int:
    gt = gen_grid_triangulation(args.p, args.q, args.l, args.seed)
    plan = grid_shedding(gt)
    sys.stdout.write(
        write_triangulation(gt.T, plan.sequence.order, (args.p, args.q, args.l))
    )
    return EXIT_OK


def cmd_gen_stacked(args) -> int:
    if args.n < 3:
        raise UsageError("need n >= 3")
    G = gen_stacked(args.n, args.seed)
    sys.stdout.write(write_triangulation(G))
    return EXIT_OK


def cmd_shed(args) -> int:
    tf = read_triangulation(_read_source(args.input))
    if args.base is not None:
        u, v = args.base
    else:
        u, v = tf.G.boundary[0], tf.G.boundary[1]
    a = shedding_sequence(tf.G, u, v)
    sys.stdout.write(write_triangulation(tf.G, a.order, tf.grid))
    return EXIT_OK


def cmd_embed(args) -> int:
    tf = read_triangulation(_read_source(args.input))
    a = _sequence_for(tf)
    emb = grid_embed(tf.G, a)
    drawn = PlaneTriangulation(tf.G.vertices, tf.G.triangles, tf.G.boundary, emb.coords)
    sys.stdout.write(write_triangulation(drawn, a.order, tf.grid))
    if args.audit:
        certs = [
            check_face_isomorphic(drawn, emb.coords),
            _prefix_convexity(emb.coords, a),
            check_grid_bounds(emb.coords, tf.G.n),
        ]
        return _emit_report(certs, sys.stderr)
    return EXIT_OK


def cmd_lift(args) -> int:
    tf = read_triangulation(_read_source(args.input))
    a = _sequence_for(tf)
    emb = grid_embed(tf.G, a)
    P = lift(emb, a)
    if args.truncate:
        P = truncate_to_polytope(P, emb)
    if args.format == "obj":
        sys.stdout.write(export_obj(P))
    else:
        sys.stdout.write(export_off(P).text)
    if args.audit:
        certs = [
            check_lift_convex(P),
            lift_convex_globally(P),
            check_grid_bounds(P, tf.G.n),
        ]
        return _emit_report(certs, sys.stderr)
    return EXIT_OK


def cmd_diameter(args) -> int:
    tf = read_triangulation(_read_source(args.input))
    G = tf.G
    if args.exact:
        t, wit = min_tau_exhaustive(G, limit=args.limit)
        print(t)
        if args.witness:
            print("a " + " ".join(str(v) for v in wit.order))
    elif args.grid_mode:
        if tf.grid is None:
            raise UsageError("--grid needs a file with a p=/q=/l= header")
        plan = grid_shedding(GridTriangulation(*tf.grid, G))
        print(f"tau {plan.tau}")
        print(f"bound {plan.tau_bound}")
        print(f"batches {len(plan.antichains)}")
        print(f"batch-bound {plan.antichain_bound}")
    else:
        print(tau_profile(G, _sequence_for(tf)).tau)
    return EXIT_OK


def _off_comment(comments: list[str], tag: str) -> Optional[tuple[int, ...]]:
    hits = [c for c in comments if c.split()[:1] == [tag]]
    if not hits:
        return None
    if len(hits) > 1:
        raise ParseError(f"more than one '{tag}' comment")
    return tuple(_int(tok, f"'{tag}' comment") for tok in hits[0].split()[1:])


def _verify_off(text: str) -> list[Certificate]:
    points, facets, comments = read_off(text)
    top = _off_comment(comments, "top")
    aorder = _off_comment(comments, "a")
    if top is not None:
        key = rot_min_first(top) if top else None  # an empty comment names no face
        match = [t for t in facets if rot_min_first(t) == key]
        if len(match) != 1:
            raise ParseError(f"'top' comment names a missing face {top}")
        top = match[0]
    P = LiftedPolyhedron(
        heights={i: p.z for i, p in points.items()},
        points=points,
        facets=facets,
        m={},
        sequence=None,
        truncated=top,
    )
    disk = P.surface_disk
    certs = [
        Certificate(
            "parse", True, None,
            f"lift of a triangulated disk, n={disk.n}"
            + (", truncated" if top else ""),
        )
    ]
    certs.append(check_lift_convex(P))
    certs.append(lift_convex_globally(P))
    if aorder is not None:
        try:
            seq = sequence_from_order(disk, aorder)
        except InvalidTriangulation as exc:
            certs.append(Certificate("shedding-order", False, aorder, str(exc)))
            return certs
        certs.append(
            Certificate("shedding-order", True, None, f"valid over {len(aorder)} vertices")
        )
        xy = {i: (p.x, p.y) for i, p in points.items()}
        certs.append(check_face_isomorphic(disk, xy))
        certs.append(_prefix_convexity(xy, seq))
        certs.append(check_grid_bounds(replace(P, sequence=seq), disk.n))
    return certs


def _verify_triangulation(text: str) -> list[Certificate]:
    tf = read_triangulation(text)
    G = tf.G
    certs = [Certificate("parse", True, None, f"triangulated disk, n={G.n}")]
    seq = None
    if tf.order is not None:
        try:
            seq = sequence_from_order(G, tf.order)
            certs.append(
                Certificate("shedding-order", True, None, f"valid over {G.n} vertices")
            )
        except InvalidTriangulation as exc:
            certs.append(Certificate("shedding-order", False, tf.order, str(exc)))
    if G.coords is not None:
        certs.append(check_face_isomorphic(G, G.coords))
        certs.append(check_grid_bounds(G.coords, G.n))
        if seq is not None:
            certs.append(_prefix_convexity(G.coords, seq))
    return certs


def cmd_verify(args) -> int:
    text = _read_source(args.input)
    head = ""
    for raw in text.splitlines():
        s = raw.split("#", 1)[0].strip()
        if s:
            head = s.split()[0]
            break
    if head == "OFF":
        certs = _verify_off(text)
    elif head == "triangulation":
        certs = _verify_triangulation(text)
    else:
        raise ParseError("input is neither a triangulation document nor an OFF mesh")
    return _emit_report(certs, sys.stdout)


def _bench_row(label: str, G: PlaneTriangulation, a: SheddingSequence, tau: int) -> str:
    emb = grid_embed(G, a)
    P = lift(emb, a)
    return f"{label} n={G.n} tau={tau} width={emb.width} height={emb.height} zbits={P.height_bits()}"


def cmd_bench(args) -> int:
    rows = 0
    for n in (10, 25, 50, 100, 200):
        if n <= args.max_n:
            G = gen_stacked(n, args.seed)
            a = shedding_sequence(G, G.boundary[0], G.boundary[1])
            print(_bench_row(f"stacked-{n}", G, a, tau_profile(G, a).tau))
            rows += 1
    for p, q, ell in ((4, 4, 2), (5, 5, 3), (8, 6, 2), (10, 10, 3), (12, 12, 3)):
        if p * q <= args.max_n:
            gt = gen_grid_triangulation(p, q, ell, args.seed)
            plan = grid_shedding(gt)
            print(_bench_row(f"grid-{p}x{q}-l{ell}", gt.T, plan.sequence, plan.tau))
            rows += 1
    if not rows:
        raise UsageError(f"--max-n {args.max_n} leaves nothing to benchmark")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _add_input(sub) -> None:
    sub.add_argument("input", nargs="?", default="-",
                     help="input file, or - for stdin (default)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every entry() call
    reuses it (parse_args keeps no state between calls), so in-process
    callers do not rebuild the nine-parser tree per command.  The one
    instance is shared; callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="shedpoly",
        description="Plane triangulations to convex integer polyhedra, with certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-grid", help="random lattice-grid triangulation")
    g.add_argument("p", type=int)
    g.add_argument("q", type=int)
    g.add_argument("l", type=int, help="edges must fit an l x l subgrid")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_grid)

    g = sub.add_parser("gen-stacked", help="random stacked triangulation")
    g.add_argument("n", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_stacked)

    g = sub.add_parser("shed", help="compute a greedy shedding order")
    _add_input(g)
    g.add_argument("--base", type=int, nargs=2, metavar=("U", "V"),
                   help="base edge (default: first two boundary vertices)")
    g.set_defaults(func=cmd_shed)

    g = sub.add_parser("embed", help="draw on the 4n^3 x 8n^5 integer grid")
    _add_input(g)
    g.add_argument("--audit", action="store_true",
                   help="print the certificate report to stderr")
    g.set_defaults(func=cmd_embed)

    g = sub.add_parser("lift", help="lift the drawing to a convex surface (OFF)")
    _add_input(g)
    g.add_argument("--truncate", action="store_true",
                   help="close into a bounded polytope (triangle boundary only)")
    g.add_argument("--format", choices=("off", "obj"), default="off")
    g.add_argument("--audit", action="store_true",
                   help="print the certificate report to stderr")
    g.set_defaults(func=cmd_lift)

    g = sub.add_parser("diameter", help="shedding depth of a triangulation")
    _add_input(g)
    mode = g.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exhaustive minimum over all shedding sequences")
    mode.add_argument("--grid", dest="grid_mode", action="store_true",
                      help="staged schedule and its 6l(p+q) bound")
    g.add_argument("--limit", type=int, default=9,
                   help="size cap for --exact (default 9)")
    g.add_argument("--witness", action="store_true",
                   help="also print a minimizing order (with --exact)")
    g.set_defaults(func=cmd_diameter)

    g = sub.add_parser("verify", help="re-check certificates of a document")
    _add_input(g)
    g.set_defaults(func=cmd_verify)

    g = sub.add_parser("bench", help="size/depth table over a built-in corpus")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-n", type=int, default=200)
    g.set_defaults(func=cmd_bench)
    return ap


def entry(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on --help / bad usage
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        InvalidTriangulation,
        BadParams,
        TooLarge,
        BoundaryNotTriangle,
        NotSequentiallyConvex,
        GeometryError,
    ) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(entry())
