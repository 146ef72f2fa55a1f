"""End-to-end command tests: pipelines, exit codes, determinism."""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shedpoly import cli, griddiam, lifting, triangulation, verify
from shedpoly.cli import (
    EXIT_CERT,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    entry,
)
from shedpoly.corpus import gen_stacked, split_square, triangle
from shedpoly.fileio import read_off, read_triangulation, sequence_from_order, write_triangulation
from shedpoly.griddiam import GridTriangulation, grid_shedding, min_tau_exhaustive
from shedpoly.triangulation import PlaneTriangulation
from shedpoly.verify import check_grid_bounds
from test_triangulation import polygon_disk, relabel


def run(argv, stdin_text=""):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = entry(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def pipeline(seed: int):
    """gen-grid 5 5 3 | embed | lift | verify, returning every byte produced."""
    c1, gen, _ = run(["gen-grid", "5", "5", "3", "--seed", str(seed)])
    c2, emb, audit = run(["embed", "--audit"], gen)
    c3, off, _ = run(["lift"], emb)
    c4, rep, _ = run(["verify"], off)
    return (c1, c2, c3, c4), (gen, emb, audit, off, rep)


def test_pipeline_grid_5_5_3_seed7_exits_zero():
    codes, (gen, emb, audit, off, rep) = pipeline(7)
    assert codes == (EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK)
    assert gen.startswith("triangulation n=25 p=5 q=5 l=3\n")
    assert off.startswith("OFF\n")
    assert rep.count("PASS") == len(rep.splitlines())
    assert "FAIL" not in rep and "FAIL" not in audit


@pytest.mark.parametrize("grid", [("14", "7", "4", "72"), ("10", "6", "4", "35")])
def test_pipeline_on_grids_whose_stage_1_block_top_sits_on_row_l(grid):
    # gen-grid once raised "diagonal ... has 0 admissible sides" on these
    p, q, ell, seed = grid
    c1, gen, _ = run(["gen-grid", p, q, ell, "--seed", seed])
    c2, emb, _ = run(["embed"], gen)
    c3, off, _ = run(["lift"], emb)
    c4, rep, _ = run(["verify"], off)
    assert (c1, c2, c3, c4) == (EXIT_OK,) * 4
    assert rep.count("PASS") == len(rep.splitlines()) == 7


def test_pipeline_is_byte_deterministic():
    assert pipeline(7) == pipeline(7)
    assert pipeline(3) == pipeline(3)


def test_diameter_exact_on_square_prints_4():
    text = write_triangulation(split_square())
    code, out, _ = run(["diameter", "--exact"], text)
    assert code == EXIT_OK
    assert out == "4\n"
    assert min_tau_exhaustive(split_square())[0] == 4


def test_diameter_exact_witness_is_replayable():
    text = write_triangulation(split_square())
    code, out, _ = run(["diameter", "--exact", "--witness"], text)
    assert code == EXIT_OK
    tau_line, a_line = out.splitlines()
    assert tau_line == "4"
    order = tuple(int(t) for t in a_line.split()[1:])
    seq = sequence_from_order(split_square(), order)  # raises if not a shedding order
    assert max(range(3, 5), default=0) <= 4 and seq.order == order


def test_embed_triangle_gives_template_coordinates():
    code, out, _ = run(["embed"], write_triangulation(triangle()))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "v 0 -22 0" in lines
    assert "v 1 22 0" in lines
    assert "v 2 0 132" in lines


def test_embed_output_verifies_clean():
    code, emb, _ = run(["embed"], write_triangulation(gen_stacked(9, 2)))
    assert code == EXIT_OK
    code, rep, _ = run(["verify"], emb)
    assert code == EXIT_OK
    kinds = [line.split(":")[0] for line in rep.splitlines()]
    assert kinds == [
        "PASS parse",
        "PASS shedding-order",
        "PASS face-isomorphic",
        "PASS grid-bounds",
        "PASS projectively-convex",
    ]


def test_audit_goes_to_stderr_stdout_stays_parseable():
    code, out, err = run(["embed", "--audit"], write_triangulation(gen_stacked(7, 1)))
    assert code == EXIT_OK
    assert read_triangulation(out).G.n == 7
    assert err.count("PASS") == 3 and "FAIL" not in err


def test_shed_accepts_base_flag():
    text = write_triangulation(split_square())
    code, out, _ = run(["shed", "--base", "1", "2"], text)
    assert code == EXIT_OK
    a_line = next(l for l in out.splitlines() if l.startswith("a "))
    assert a_line.split()[1:3] == ["1", "2"]
    sequence_from_order(split_square(), tuple(int(t) for t in a_line.split()[1:]))


@settings(max_examples=80, deadline=None)
@given(
    b=st.integers(3, 40),
    k=st.integers(0, 10),
    seed=st.integers(0, 10**6),
    edge=st.integers(0, 10**6),
    flip=st.booleans(),
)
def test_shed_embed_lift_verify_on_any_polygon_and_base_edge(b, k, seed, edge, flip):
    # non-dense ids and any base edge, in either direction: the boundary
    # head (the smallest id) is deleted partway through most peels
    G = relabel(polygon_disk(b, k, seed), seed)
    u, v = G.boundary[edge % b], G.boundary[(edge + 1) % b]
    if flip:
        u, v = v, u
    doc = write_triangulation(G)
    for argv in (["shed", "--base", str(u), str(v)], ["embed"], ["lift"], ["verify"]):
        code, doc, err = run(argv, doc)
        assert code == EXIT_OK, (argv, err)
    assert doc.count("PASS ") == 7 == len(doc.splitlines())


def test_lift_truncate_and_verify_off():
    c, gen, _ = run(["gen-stacked", "10", "--seed", "4"])
    c, off, _ = run(["lift", "--truncate"], gen)
    assert c == EXIT_OK
    assert "# top " in off
    c, rep, _ = run(["verify"], off)
    assert c == EXIT_OK
    assert ", truncated" in rep
    assert "FAIL" not in rep


def test_lift_obj_format():
    c, gen, _ = run(["gen-stacked", "6", "--seed", "0"])
    c, obj, _ = run(["lift", "--format", "obj"], gen)
    assert c == EXIT_OK
    tags = {l.split()[0] for l in obj.splitlines() if l.strip()}
    assert tags == {"v", "f"}


def test_diameter_grid_mode_matches_plan():
    c, gen, _ = run(["gen-grid", "5", "5", "3", "--seed", "7"])
    c, out, _ = run(["diameter", "--grid"], gen)
    assert c == EXIT_OK
    tf = read_triangulation(gen)
    plan = grid_shedding(GridTriangulation(5, 5, 3, tf.G))
    assert out == (
        f"tau {plan.tau}\n"
        f"bound {plan.tau_bound}\n"
        f"batches {len(plan.antichains)}\n"
        f"batch-bound {plan.antichain_bound}\n"
    )
    assert plan.tau_bound == 180 and plan.antichain_bound == 120


def test_diameter_default_uses_file_order():
    c, gen, _ = run(["gen-grid", "4", "4", "2", "--seed", "1"])
    c, out, _ = run(["diameter"], gen)
    assert c == EXIT_OK
    assert out.strip().isdigit()


def test_bench_is_deterministic_and_ordered():
    a = run(["bench", "--max-n", "30"])
    b = run(["bench", "--max-n", "30"])
    assert a == b
    code, out, _ = a
    assert code == EXIT_OK
    labels = [row.split()[0] for row in out.splitlines()]
    assert labels == ["stacked-10", "stacked-25", "grid-4x4-l2", "grid-5x5-l3"]
    assert all("zbits=" in row for row in out.splitlines())


# -- exit codes ------------------------------------------------------------------


def test_usage_errors_exit_2():
    assert run(["embed", "/no/such/file"])[0] == EXIT_USAGE
    assert run(["gen-grid", "five", "5", "3"])[0] == EXIT_USAGE
    assert run(["no-such-command"])[0] == EXIT_USAGE
    assert run([])[0] == EXIT_USAGE
    assert run(["gen-stacked", "2"])[0] == EXIT_USAGE
    assert run(["diameter", "--grid"], write_triangulation(split_square()))[0] == EXIT_USAGE


def test_help_exits_0():
    code, out, _ = run(["--help"])
    assert code == EXIT_OK


# -- one parser per process ------------------------------------------------------


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_keeps_no_flag_between_commands():
    drawn = run(["embed"], write_triangulation(gen_stacked(12, 3)))[1]
    fresh = subprocess.run(  # a process of its own, with a parser of its own
        [sys.executable, "-m", "shedpoly.cli", "lift"], input=drawn, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert fresh.returncode == EXIT_OK
    truncated = run(["lift", "--truncate"], drawn)
    assert truncated[0] == EXIT_OK and truncated[1] != fresh.stdout
    assert run(["lift"], drawn) == (EXIT_OK, fresh.stdout, "")


def test_reused_parser_still_rejects_bad_usage():
    doc = write_triangulation(split_square())
    assert run(["diameter", "--exact", "--grid"], doc)[0] == EXIT_USAGE
    code, out, _ = run(["diameter"], doc)
    assert code == EXIT_OK and out.strip().isdigit()
    assert run(["diameter", "--exact", "--grid"], doc)[0] == EXIT_USAGE
    assert run(["no-such-command"])[0] == EXIT_USAGE


def test_help_twice_gives_the_same_text():
    first, second = run(["--help"]), run(["--help"])
    assert first[0] == EXIT_OK and "gen-grid" in first[1]
    assert second == first


def test_parse_errors_exit_3():
    assert run(["verify"], "not a document\n")[0] == EXIT_PARSE
    assert run(["embed"], "triangulation n=2\nt 0 1 1\nb 0 1\n")[0] == EXIT_PARSE
    assert run(["verify"], "OFF\nbad counts\n")[0] == EXIT_PARSE


def test_bad_off_comment_tokens_exit_3():
    off = run(["lift"], write_triangulation(gen_stacked(6, 0)))[1]
    lines = [l for l in off.splitlines() if not l.startswith("# a ")]
    bad_a = "\n".join(lines[:1] + ["# a 0 1 x"] + lines[1:]) + "\n"
    code, _, err = run(["verify"], bad_a)
    assert code == EXIT_PARSE
    assert "'a' comment" in err
    bad_top = "\n".join(lines[:1] + ["# top 0 1 y"] + lines[1:]) + "\n"
    assert run(["verify"], bad_top)[0] == EXIT_PARSE


@pytest.mark.parametrize("tag", ["a", "top"])
@pytest.mark.parametrize(
    "mutation", ["empty", "1", "2", "4", "non-integer", "repeated", "duplicate", "out-of-range"]
)
def test_mutated_off_comments_exit_3_or_4(tag, mutation):
    # a bad 'a' or 'top' comment is a malformed document or a failed
    # certificate, never a domain error or a crash
    lines = fuzz_documents()[4].splitlines()  # a truncated lift: it has both comments
    (i,) = [i for i, line in enumerate(lines) if line.split()[:2] == ["#", tag]]
    ids = lines[i].split()[2:]
    new = {
        "empty": [],
        "1": ids[:1],
        "2": ids[:2],
        "4": ids[:3] + ["3"],
        "non-integer": ids[:1] + ["x"] + ids[2:],
        "repeated": ids,
        "duplicate": ids[:1] + ids[:-1],
        "out-of-range": ids[:-1] + ["99"],
    }[mutation]
    lines[i] = " ".join(["#", tag] + new)
    if mutation == "repeated":
        lines.insert(i, lines[i])
    code, _, err = run(["verify"], "\n".join(lines) + "\n")
    assert code in (EXIT_PARSE, EXIT_CERT), (code, err)


def test_each_command_peels_once(monkeypatch):
    import shedpoly.triangulation as tri

    calls = []
    real = tri.PeelEngine.delete

    def counting(self, v, *args):
        calls.append(v)
        return real(self, v, *args)

    monkeypatch.setattr(tri.PeelEngine, "delete", counting)
    fan = PlaneTriangulation(range(30), [(0, i, i + 1) for i in range(1, 29)], range(30))
    docs = [
        write_triangulation(gen_stacked(60, 0)),  # greedy order from the CLI
        write_triangulation(fan),  # left-heavy: the drawing is mirrored
        run(["gen-grid", "5", "5", "3", "--seed", "0"])[1],  # order from the file
    ]
    for doc in docs:
        n = read_triangulation(doc).G.n
        drawn = run(["embed"], doc)[1]
        off = run(["lift"], doc)[1]
        for argv, text in (
            (["embed"], doc),
            (["embed", "--audit"], doc),
            (["lift", "--truncate"], doc),
            (["verify"], off),
            (["verify"], drawn),
        ):
            calls.clear()
            run(argv, text)
            assert len(calls) == n - 3, (argv, n, len(calls))


@pytest.mark.parametrize("label", ["stacked-160", "fan-200"])
def test_verify_derives_each_fact_of_a_lift_once(monkeypatch, label):
    # an OFF verify validates the surface disk once (and G_3 once, in the
    # re-peel), computes each facet's plane once, and takes grid-bounds'
    # depths in one pass over the re-peeled disk, whose neighbour sets
    # validate already built
    if label == "stacked-160":
        off = run(["lift", "--truncate"], run(["gen-stacked", "160", "--seed", "0"])[1])[1]
    else:
        fan = PlaneTriangulation(range(200), [(0, i, i + 1) for i in range(1, 199)], range(200))
        off = run(["lift"], write_triangulation(fan))[1]
    points, facets, _ = read_off(off)
    validated, planes, profiled, neighbour_sets = [], [], [], []
    real_validate, real_plane = triangulation._validate, lifting.plane_through
    real_profile, real_adjacency = griddiam._profile, PlaneTriangulation.adjacency

    def count_validate(G):
        validated.append(G.n)
        return real_validate(G)

    def count_profile(G, order):
        profiled.append((G.n, G._verdict is not None))
        return real_profile(G, order)

    def count_adjacency(G):
        if G._adj is None:
            neighbour_sets.append(G.n)
        return real_adjacency(G)

    def count_plane(*pts):
        planes.append(pts)
        return real_plane(*pts)

    monkeypatch.setattr(triangulation, "_validate", count_validate)
    # every module that has computed facet planes for the certificates
    monkeypatch.setattr(lifting, "plane_through", count_plane)
    monkeypatch.setattr(verify, "plane_through", count_plane, raising=False)
    monkeypatch.setattr(griddiam, "_profile", count_profile)
    monkeypatch.setattr(PlaneTriangulation, "adjacency", count_adjacency)
    code, out, _ = run(["verify"], off)
    assert code == EXIT_OK and out.count("PASS ") == 7
    assert sorted(validated) == [3, len(points)]
    assert len(planes) == len(facets)
    assert profiled == [(len(points), True)]
    assert sorted(neighbour_sets) == [3, len(points)]


@pytest.mark.parametrize("label", ["stacked-160", "fan-200"])
def test_lift_audit_takes_its_depths_in_one_pass(monkeypatch, label):
    # the lift's height assert and check_grid_bounds read one depth profile,
    # kept on the sequence; plain lift makes that same one pass
    if label == "stacked-160":
        doc = run(["gen-stacked", "160", "--seed", "0"])[1]
    else:
        doc = write_triangulation(
            PlaneTriangulation(range(200), [(0, i, i + 1) for i in range(1, 199)], range(200))
        )
    n = read_triangulation(doc).G.n
    profiled = []
    real_profile = griddiam._profile

    def count_profile(G, order):
        profiled.append(G.n)
        return real_profile(G, order)

    monkeypatch.setattr(griddiam, "_profile", count_profile)
    code, _, err = run(["lift", "--audit"], doc)
    assert code == EXIT_OK and err.count("PASS ") == 3, err
    assert profiled == [n]
    profiled.clear()
    assert run(["lift"], doc)[0] == EXIT_OK
    assert profiled == [n]


def test_embed_at_n_2000():
    # size smoke test: the fan is all boundary (tau = n, long links at the
    # apex), the stacked disk is all interior; embed runs its per-step audit
    fan = PlaneTriangulation(range(2000), [(0, i, i + 1) for i in range(1, 1999)], range(2000))
    for doc in (write_triangulation(fan), run(["gen-stacked", "2000"])[1]):
        code, drawn, err = run(["embed"], doc)
        assert code == EXIT_OK, err
        G = read_triangulation(drawn).G
        assert G.n == 2000
        assert check_grid_bounds(G.coords, G.n).passed


def test_verify_fan_drawing_at_n_2000():
    # size smoke test: a drawing document gets five certificates, among them
    # face-isomorphic over a 2000-cycle and all 1998 prefix boundaries
    fan = PlaneTriangulation(range(2000), [(0, i, i + 1) for i in range(1, 1999)], range(2000))
    drawn = run(["embed"], write_triangulation(fan))[1]
    code, out, err = run(["verify"], drawn)
    assert code == EXIT_OK, err
    kinds = [line.split()[1].rstrip(":") for line in out.splitlines()]
    assert kinds == ["parse", "shedding-order", "face-isomorphic", "grid-bounds",
                     "projectively-convex"]
    assert out.count("PASS ") == 5


def test_fan_pipeline_at_n_2000():
    # size smoke test: every later vertex is in the apex's 1998-face star,
    # and the lift document gets all seven certificates
    fan = PlaneTriangulation(range(2000), [(0, i, i + 1) for i in range(1, 1999)], range(2000))
    doc = write_triangulation(fan)
    for argv in (["embed"], ["lift"], ["verify"]):
        code, doc, err = run(argv, doc)
        assert code == EXIT_OK, (argv, err)
    assert doc.count("PASS ") == 7 == len(doc.splitlines())


def test_lift_truncate_verify_at_n_2000():
    # size smoke test: a truncated lift document gets all seven certificates
    _, off, _ = run(["lift", "--truncate"], run(["gen-stacked", "2000"])[1])
    code, out, err = run(["verify"], off)
    assert code == EXIT_OK, err
    assert out.count("PASS ") == 7 == len(out.splitlines())
    assert "PASS lift-convex-global: 3996 facets support all 2000 vertices" in out


def test_grid_pipeline_at_32x32():
    # size smoke test for the staged schedule: gen-grid runs grid_shedding on
    # n = 1024, and the lift document gets all seven certificates
    code, gen, err = run(["gen-grid", "32", "32", "3", "--seed", "1"])
    assert code == EXIT_OK, err
    for argv in (["embed"], ["lift"], ["verify"]):
        code, gen, err = run(argv, gen)
        assert code == EXIT_OK, (argv, err)
    assert gen.count("PASS ") == 7 == len(gen.splitlines())


def test_diameter_grid_rejects_a_disk_its_header_does_not_describe():
    # the staged schedule holds only for the lattice the header names: a
    # smaller l, another p x q with the same n or an out-of-range l are
    # domain errors, not failed invariants
    gen = run(["gen-grid", "12", "12", "3", "--seed", "1"])[1]
    assert run(["diameter", "--grid"], gen)[0] == EXIT_OK
    cases = {
        "l=2": gen.replace("l=3", "l=2", 1),
        "6x24": gen.replace("p=12 q=12", "p=6 q=24", 1),
        "l=0": gen.replace("l=3", "l=0", 1),
    }
    for label, doc in cases.items():
        code, _, err = run(["diameter", "--grid"], doc)
        assert code == EXIT_DOMAIN and err.startswith("domain error: "), (label, err)


def test_domain_errors_exit_5():
    assert run(["gen-grid", "3", "3", "5"])[0] == EXIT_DOMAIN  # ell > min(p, q)
    square = write_triangulation(split_square())
    assert run(["lift", "--truncate"], square)[0] == EXIT_DOMAIN  # 4-gon boundary
    big = write_triangulation(gen_stacked(10, 0))
    assert run(["diameter", "--exact"], big)[0] == EXIT_DOMAIN  # above --limit
    tri = write_triangulation(triangle())
    assert run(["shed", "--base", "0", "2"], tri)[0] == EXIT_OK
    assert run(["shed", "--base", "7", "8"], tri)[0] == EXIT_DOMAIN


def test_certificate_failures_exit_4():
    gen = run(["gen-stacked", "8", "--seed", "3"])[1]
    interior_first = read_triangulation(gen)
    interior = next(v for v in interior_first.G.vertices if v not in interior_first.G.boundary)
    order = interior_first.G.boundary[:2] + tuple(
        v for v in interior_first.G.vertices if v not in interior_first.G.boundary[:2]
    )
    # force the interior vertex to shed last; replay must reject it
    order = tuple(v for v in order if v != interior) + (interior,)
    doc = gen + "a " + " ".join(map(str, order)) + "\n"
    code, out, _ = run(["verify"], doc)
    assert code == EXIT_CERT
    assert "FAIL shedding-order" in out

    # tamper a lifted height: local convexity must break
    off = run(["lift"], gen)[1]
    lines = off.splitlines()
    at = next(i for i, l in enumerate(lines) if l and l[0] not in "#O")
    nv = int(lines[at].split()[0])
    x, y, z = lines[at + nv].split()
    lines[at + nv] = f"{x} {y} {int(z) + 10**9}"
    code, out, _ = run(["verify"], "\n".join(lines) + "\n")
    assert code == EXIT_CERT
    assert "FAIL" in out


def test_grid_bounds_measure_the_z_extent():
    # scaling a lift's heights by 10^3000 and shifting its top to 0 keeps
    # every crease strict and every height at most 0; only the extent,
    # about 10^3005, shows that the lift exceeds (500n^8)^tau
    off = run(["lift"], run(["gen-stacked", "12", "--seed", "1"])[1])[1]
    lines = off.splitlines()
    at = next(i for i, l in enumerate(lines) if l and l[0] not in "#O")
    rows = range(at + 1, at + 1 + int(lines[at].split()[0]))
    top = max(int(lines[k].split()[2]) for k in rows)
    for k in rows:
        x, y, z = lines[k].split()
        lines[k] = f"{x} {y} {10**3000 * (int(z) - top)}"
    code, out, _ = run(["verify"], "\n".join(lines) + "\n")
    assert code == EXIT_CERT
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL grid-bounds"), fails


def test_verify_rejects_unknown_document():
    code, _, err = run(["verify"], "PLY\n0 0 0\n")
    assert code == EXIT_PARSE
    assert "neither" in err


# -- parser fuzz: every mutated document ends in a documented exit code ------------


@cache
def fuzz_documents():
    """Six documents to mutate, made once per session: triangulations
    (stacked and grid), a `shed` output, a drawing and two OFF lifts."""
    stacked = run(["gen-stacked", "8", "--seed", "2"])[1]
    grid = run(["gen-grid", "5", "5", "3", "--seed", "1"])[1]
    docs = (
        stacked,
        grid,
        run(["shed"], stacked)[1],
        run(["embed"], stacked)[1],
        run(["lift", "--truncate"], stacked)[1],
        run(["lift"], grid)[1],
    )
    assert all(docs)
    return docs


FUZZ_COMMANDS = (
    ["embed"], ["lift"], ["verify"], ["shed"], ["diameter"], ["diameter", "--grid"],
)


@st.composite
def mutated_documents(draw):
    """One document with one line dropped, duplicated or swapped, one token
    dropped from one line, one integer token changed, or the text cut
    short."""
    docs = fuzz_documents()
    doc = docs[draw(st.integers(0, len(docs) - 1))]
    kind = draw(st.sampled_from(("drop", "duplicate", "swap", "shorten", "integer", "truncate")))
    if kind == "truncate":
        return doc[: draw(st.integers(0, len(doc) - 1))]
    if kind == "integer":
        tokens = list(re.finditer(r"-?\d+", doc))
        tok = tokens[draw(st.integers(0, len(tokens) - 1))]
        value = draw(st.one_of(st.integers(-2, 30), st.just(int(tok.group()) + 1)))
        return doc[: tok.start()] + str(value) + doc[tok.end() :]
    lines = doc.splitlines()
    if kind == "shorten":
        i = draw(st.sampled_from([i for i, l in enumerate(lines) if l.split()]))
        tokens = lines[i].split()
        del tokens[draw(st.integers(0, len(tokens) - 1))]
        lines[i] = " ".join(tokens)
        return "\n".join(lines) + "\n"
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(doc=mutated_documents())
def test_mutated_documents_exit_with_a_documented_code(doc):
    # 1 would be an uncaught exception: run() lets it propagate, so it fails
    # here with its traceback
    for argv in FUZZ_COMMANDS:
        code = run(argv, doc)[0]
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_CERT, EXIT_DOMAIN), (argv, code)
