"""Traced replay of the CLI pipeline, for per-layer numbers.

Each ``replay_*`` function makes the same public library calls, in the same
order, as the matching ``shedpoly.cli.cmd_*`` and returns the same text the
command writes to stdout; the benchmark checks that the two agree.  Every call
is wrapped in a span from the outside: the program itself is not traced, so a
library function's self time includes everything it calls internally.

After each instance's commands, a ``breakdown`` span splits ``grid_embed``
into the stages it runs internally (deletion trace, shedding trees,
reduction, reduced triangulation) and adds ``tau_profile`` and an audit-off
embed.  Breakdown spans are not part of any ``cmd.*`` span, so the tracing
overhead (traced ``cmd.*`` totals minus the untraced command times) leaves
them out.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    instance: Optional[str]


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.instance: Optional[str] = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.instance)
        self.spans.append(span)
        self._open.append(idx)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by children."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out[s.name] += (s.end - s.start) - covered
        return dict(out)

    def totals(self, prefix: str) -> dict[str, float]:
        """Summed duration of every span whose name starts with prefix."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.name.startswith(prefix):
                out[s.name] += s.end - s.start
        return dict(out)


def _sequence_for(lib, tr: Tracer, tf):
    if tf.order is not None:
        return tr.call("fileio.sequence_from_order", lib.fileio.sequence_from_order, tf.G, tf.order)
    return tr.call(
        "triangulation.shedding_sequence",
        lib.triangulation.shedding_sequence, tf.G, tf.G.boundary[0], tf.G.boundary[1],
    )


def replay_gen_grid(lib, tr: Tracer, p: int, q: int, ell: int, seed: int) -> str:
    gt = tr.call("griddiam.gen_grid_triangulation", lib.griddiam.gen_grid_triangulation, p, q, ell, seed)
    plan = tr.call("griddiam.grid_shedding", lib.griddiam.grid_shedding, gt)
    tr.counters["griddiam.batches"] += len(plan.antichains)
    return tr.call(
        "fileio.write_triangulation",
        lib.fileio.write_triangulation, gt.T, plan.sequence.order, (p, q, ell),
    )


def replay_embed(lib, tr: Tracer, text: str):
    """Returns (stdout text, graph, shedding sequence)."""
    tf = tr.call("fileio.read_triangulation", lib.fileio.read_triangulation, text)
    a = _sequence_for(lib, tr, tf)
    emb = tr.call("embedding.grid_embed", lib.embedding.grid_embed, tf.G, a)
    for rec in emb.audit:
        if rec.case in ("high", "two"):
            tr.counters[f"embedding.placements_{rec.case}"] += 1
    tr.counters["embedding.mirrored"] += int(emb.mirrored)
    G = tf.G
    drawn = lib.triangulation.PlaneTriangulation(G.vertices, G.triangles, G.boundary, emb.coords)
    out = tr.call("fileio.write_triangulation", lib.fileio.write_triangulation, drawn, a.order, tf.grid)
    return out, G, a


def replay_lift(lib, tr: Tracer, text: str, truncate: bool) -> str:
    tf = tr.call("fileio.read_triangulation", lib.fileio.read_triangulation, text)
    a = _sequence_for(lib, tr, tf)
    emb = tr.call("embedding.grid_embed", lib.embedding.grid_embed, tf.G, a)
    P = tr.call("lifting.lift", lib.lifting.lift, emb, a)
    if truncate:
        P = tr.call("lifting.truncate_to_polytope", lib.lifting.truncate_to_polytope, P, emb)
    out = tr.call("fileio.export_off", lib.fileio.export_off, P).text
    tr.counters["fileio.off_bytes"] += len(out.encode())
    return out


def _prefix_convexity(lib, tr: Tracer, G, coords, a):
    Certificate = lib.verify.Certificate
    trace = tr.call("triangulation.deletion_trace", lib.triangulation.deletion_trace, G, a)
    base = (coords[a.order[0]], coords[a.order[1]])
    for i in range(3, G.n + 1):
        tr.counters["verify.prefixes"] += 1
        cert = tr.call(
            "verify.check_projectively_convex",
            lib.verify.check_projectively_convex, [coords[v] for v in trace.boundary(i)], base,
        )
        if not cert.passed:
            return Certificate(cert.kind, False, cert.witness, f"prefix {i}: {cert.detail}")
    return Certificate("projectively-convex", True, None, f"all {G.n - 2} prefix boundaries convex")


def _off_comment(comments: list[str], tag: str) -> Optional[tuple[int, ...]]:
    hits = [c for c in comments if c.split()[:1] == [tag]]
    return tuple(int(tok) for tok in hits[0].split()[1:]) if hits else None


def _rot_min(t: tuple[int, ...]) -> tuple[int, ...]:
    j = t.index(min(t))
    return t[j:] + t[:j]


def replay_verify(lib, tr: Tracer, text: str) -> str:
    """The OFF branch of ``verify``, which is the only one the pipeline uses."""
    Certificate = lib.verify.Certificate
    v = lib.verify
    points, facets, comments = tr.call("fileio.read_off", lib.fileio.read_off, text)
    top = _off_comment(comments, "top")
    aorder = _off_comment(comments, "a")
    if top is None:
        disk = tr.call("fileio.disk_from_facets", lib.fileio.disk_from_facets, facets)
    else:
        (top,) = [t for t in facets if _rot_min(t) == _rot_min(top)]
        lower = [(t[2], t[1], t[0]) for t in facets if t != top]
        disk = tr.call("fileio.disk_from_facets", lib.fileio.disk_from_facets, lower)
    certs = [
        Certificate(
            "parse", True, None,
            f"lift of a triangulated disk, n={disk.n}" + (", truncated" if top else ""),
        )
    ]
    P = lib.lifting.LiftedPolyhedron(
        heights={i: p.z for i, p in points.items()},
        points=points, facets=facets, m={}, sequence=None, truncated=top,
    )
    certs.append(tr.call("verify.check_lift_convex", v.check_lift_convex, P))
    certs.append(tr.call("verify.lift_convex_globally", v.lift_convex_globally, P))
    if aorder is not None:
        seq = tr.call("fileio.sequence_from_order", lib.fileio.sequence_from_order, disk, aorder)
        certs.append(Certificate("shedding-order", True, None, f"valid over {len(aorder)} vertices"))
        xy = {i: (p.x, p.y) for i, p in points.items()}
        certs.append(tr.call("verify.check_face_isomorphic", v.check_face_isomorphic, disk, xy))
        certs.append(_prefix_convexity(lib, tr, disk, xy, seq))
        certs.append(
            tr.call("verify.check_grid_bounds", v.check_grid_bounds, replace(P, sequence=seq), disk.n)
        )
    return v.report(certs)


def _reduce(lib, tr: Tracer, work, a):
    trace = tr.call("triangulation.deletion_trace", lib.triangulation.deletion_trace, work, a)
    trees = tr.call(
        "reduction.build_shedding_trees", lib.reduction.build_shedding_trees, work, a, trace
    )
    return tr.call("reduction.reduce_trees", lib.reduction.reduce_trees, trees, a)


def _breakdown(lib, tr: Tracer, G, a) -> None:
    # grid_embed's own pre-stage: reduce, mirror when m > m', reduce again
    rs = _reduce(lib, tr, G, a)
    m, mp = rs.internal_counts()
    if m > mp:
        rs = _reduce(lib, tr, tr.call("triangulation.mirror", lib.triangulation.mirror, G), a)
    rt = tr.call(
        "reduction.build_reduced_triangulation", lib.reduction.build_reduced_triangulation, rs
    )
    tr.counters["reduction.tree_nodes"] += len(rs.store.by_key)
    tr.counters["reduction.mprime"] += rt.mprime
    prof = tr.call("griddiam.tau_profile", lib.griddiam.tau_profile, G, a)
    tr.counters["griddiam.tau"] = max(tr.counters["griddiam.tau"], prof.tau)
    tr.call("embedding.grid_embed_noaudit", lib.embedding.grid_embed, G, a, audit=False)


def traced_pass(lib, tr: Tracer, instances) -> dict[tuple[str, str], str]:
    """Replay every instance's commands under spans named ``cmd.<command>``,
    then its breakdown under a ``breakdown`` span.  Returns each op's stdout
    keyed by (instance label, command)."""
    outputs: dict[tuple[str, str], str] = {}
    for inst in instances:
        tr.instance = inst.label
        doc, G, a = inst.start, None, None
        for _, argv in inst.commands:
            cmd = argv[0]
            if cmd == "gen-grid":  # gen-grid P Q L --seed S
                p, q, ell, seed = (int(argv[i]) for i in (1, 2, 3, argv.index("--seed") + 1))
                doc = tr.call("cmd.gen_grid", replay_gen_grid, lib, tr, p, q, ell, seed)
            elif cmd == "embed":
                doc, G, a = tr.call("cmd.embed", replay_embed, lib, tr, doc)
            elif cmd == "lift":
                doc = tr.call("cmd.lift", replay_lift, lib, tr, doc, "--truncate" in argv)
            elif cmd == "verify":
                doc = tr.call("cmd.verify", replay_verify, lib, tr, doc)
            else:
                raise ValueError(f"no replay for command {cmd!r}")
            outputs[(inst.label, cmd)] = doc
        tr.call("breakdown", _breakdown, lib, tr, G, a)
    tr.instance = None
    return outputs
