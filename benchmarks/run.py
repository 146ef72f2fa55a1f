"""shedpoly benchmark: the CLI pipeline end to end, and a traced run per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload stacked --seed 0 --seconds 30 --trace 0

One process, no threads.  Each op is one CLI command on one instance, called
in-process through ``shedpoly.cli.entry`` with stdin and stdout redirected.
A pass runs every op of the workload once; passes repeat while the next one
would still end within ``--seconds`` (at least one pass).  Every op's output
is checked: exit code 0, every ``verify`` line a PASS with all seven
certificates present, the same bytes on every pass and, where golden.json
pins them (the default seed, and the seed-free deep instances), the sha256
of the ``embed`` and ``lift`` outputs.  To re-pin after a deliberate output
change, copy the digests from the record line of a default-seed run.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, from
per-op medians over the passes.  ``--trace 1`` makes the same untraced
passes (for the ``cli.*_s`` command totals), then one traced replay of the
pipeline (see replay.py) for per-layer self times and counters, the tracing
overhead, the bound slack and, on ``deep``, the recursion probe.  The probe
is not an op: its failure is reported as ``probe.failed``, not in
``failed``, and its time is in no metric.

The last stdout line is the result object.  The line before it, starting
with ``record``, holds the environment (Python version, nproc, seed), every
op time, per-instance sizes and bounds, output digests and span totals.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import replay
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("cli", "embedding", "fileio", "griddiam", "lifting", "reduction", "triangulation", "verify")
SETUP_REPS = 7
CERTIFICATES = {
    "parse", "lift-convex-local", "lift-convex-global", "shedding-order",
    "face-isomorphic", "projectively-convex", "grid-bounds",
}
# per-layer self times, reported as "<span>_s"; zero where a workload never
# makes the call
LAYER_SPANS = (
    "triangulation.shedding_sequence", "triangulation.deletion_trace",
    "reduction.build_shedding_trees", "reduction.reduce_trees",
    "reduction.build_reduced_triangulation",
    "embedding.grid_embed", "embedding.grid_embed_noaudit",
    "lifting.lift", "lifting.truncate_to_polytope",
    "griddiam.grid_shedding", "griddiam.tau_profile",
    "verify.lift_convex_globally", "verify.check_face_isomorphic",
    "verify.check_projectively_convex", "verify.check_lift_convex",
    "verify.check_grid_bounds",
    "fileio.read_triangulation", "fileio.write_triangulation",
    "fileio.sequence_from_order", "fileio.export_off", "fileio.read_off",
    "fileio.disk_from_facets",
)
LAYER_COUNTERS = (
    "reduction.tree_nodes", "reduction.mprime", "embedding.placements_high",
    "embedding.placements_two", "embedding.mirrored", "griddiam.tau",
    "griddiam.batches", "verify.prefixes", "fileio.off_bytes",
)
CLI_COMMANDS = {"gen-grid": "cli.gen_grid_s", "embed": "cli.embed_s",
                "lift": "cli.lift_s", "verify": "cli.verify_s"}


def load_shedpoly() -> SimpleNamespace:
    """Import (again) every shedpoly module from this checkout's src/."""
    for name in [m for m in sys.modules if m == "shedpoly" or m.startswith("shedpoly.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"shedpoly.{m}") for m in MODULES})
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"shedpoly imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def run_cli(entry, argv, stdin_text: str):
    """(exit code, stdout, stderr, seconds) of one in-process command.  An
    exception escaping the CLI is exit code 1, as it would be for the script."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    t0 = perf_counter()
    try:
        code = entry(list(argv))
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    finally:
        seconds = perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), seconds


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_op(label: str, argv, code: int, out: str, err: str) -> str | None:
    """The reason this op's output is wrong, or None."""
    if code != 0:
        why = err.strip().splitlines()[-1:] or [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        return f"{label}: {' '.join(argv)} exited {code}: {why[0] if why else ''}"
    if argv[0] == "verify":
        lines = out.splitlines()
        bad = [ln for ln in lines if not ln.startswith("PASS ")]
        if bad:
            return f"{label}: verify reported {bad[0]!r}"
        kinds = {ln.split()[1].rstrip(":") for ln in lines}
        if kinds != CERTIFICATES:
            return f"{label}: verify certificates {sorted(kinds)}, expected {sorted(CERTIFICATES)}"
    return None


class Bench:
    """One benchmark run: set-up, timed passes, checks and metrics."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.golden = json.loads((HERE / "golden.json").read_text())
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        self.times: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.stage: dict[tuple[str, str], str] = {}
        self.outputs: dict[tuple[str, str], str] = {}
        self.passes = 0
        setup = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            self.lib = load_shedpoly()
            self.instances = workloads.build(self.lib, self.cli, workload, seed)
            setup.append(perf_counter() - t0)
        self.setup_times = setup

    def cli(self, argv, stdin_text: str = ""):
        return run_cli(self.lib.cli.entry, argv, stdin_text)[:3]

    def one_pass(self) -> None:
        entry = self.lib.cli.entry
        for inst in self.instances:
            doc = inst.start or ""
            for stage, argv in inst.commands:
                self.attempted += 1
                code, out, err, seconds = run_cli(entry, argv, doc)
                key = (inst.label, argv[0])
                problem = check_op(inst.label, argv, code, out, err)
                if problem is None and key in self.outputs and out != self.outputs[key]:
                    problem = f"{inst.label}: {argv[0]} output differs between passes"
                pinned = self.golden.get(inst.label, {}).get(argv[0])
                if problem is None and pinned is not None and sha256(out) != pinned:
                    problem = f"{inst.label}: {argv[0]} output digest differs from golden.json"
                if problem is not None:
                    self.failed += 1
                    self.errors.append(problem)
                    break  # the rest of this instance's pipeline has no input
                self.outputs.setdefault(key, out)
                self.times[key].append(seconds)
                self.stage[key] = stage
                doc = out
        self.passes += 1

    def timed_passes(self, seconds: float) -> None:
        """Passes until the next one would end after ``seconds``; at least one."""
        t0 = perf_counter()
        while True:
            t = perf_counter()
            self.one_pass()
            now = perf_counter()
            if self.failed or (now - t0) + (now - t) > seconds:
                return

    def op_medians(self) -> dict[tuple[str, str], float]:
        return {k: statistics.median(v) for k, v in self.times.items()}

    def sizes(self) -> list[dict]:
        """Per instance, from the outputs: drawing width and height, and the
        bit length of the largest lifted height."""
        facts = []
        for inst in self.instances:
            emb_doc = self.outputs.get((inst.label, "embed"))
            off = self.outputs.get((inst.label, "lift"))
            if emb_doc is None or off is None:
                continue
            coords = self.lib.fileio.read_triangulation(emb_doc).G.coords
            xs = [p[0] for p in coords.values()]
            ys = [p[1] for p in coords.values()]
            points, _, _ = self.lib.fileio.read_off(off)
            facts.append({
                "instance": inst.label, "n": inst.n,
                "width": max(xs) - min(xs), "height": max(ys) - min(ys),
                "height_bits": max(abs(p.z) for p in points.values()).bit_length(),
            })
        return facts

    def add_bounds(self, facts: list[dict]) -> None:
        """Add the paper's bound next to each size, with tau (and on grids the
        batch count) from the ``diameter`` command run on the outputs."""
        by_label = {inst.label: inst for inst in self.instances}
        for f in facts:
            inst, n = by_label[f["instance"]], f["n"]
            f.update(width_bound=4 * n**3, height_bound=8 * n**5)
            out = self.diameter(inst.label, self.outputs[(inst.label, "embed")])
            if out is not None:
                f["tau"] = int(out)
                f["height_bits_bound"] = ((500 * n**8) ** f["tau"]).bit_length()
            if inst.grid is not None:
                out = self.diameter(inst.label, self.outputs[(inst.label, "gen-grid")], "--grid")
                if out is not None:
                    rows = dict(line.split() for line in out.splitlines())
                    f.update(
                        grid_tau=int(rows["tau"]), tau_bound=int(rows["bound"]),
                        batches=int(rows["batches"]), batches_bound=int(rows["batch-bound"]),
                    )

    def diameter(self, label: str, doc: str, *flags: str) -> str | None:
        code, out, err = self.cli(["diameter", *flags], doc)
        problem = check_op(label, ["diameter", *flags], code, out, err)
        if problem is not None:
            self.errors.append(problem)
            return None
        return out

    def end_to_end(self, facts: list[dict], peak_rss_mb: float) -> dict[str, float]:
        med = self.op_medians()
        return {
            "pipeline_s": sum(med.values()),
            "construct_s": sum(v for k, v in med.items() if self.stage[k] == "construct"),
            "certify_s": sum(v for k, v in med.items() if self.stage[k] == "certify"),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": peak_rss_mb,
            "coord_bits": max((max(f["width"], f["height"]).bit_length() for f in facts), default=0),
            # a mean, not a max: the largest lift height of one random
            # instance swings by a fifth from seed to seed
            "height_bits": statistics.fmean(f["height_bits"] for f in facts) if facts else 0,
        }

    def cli_totals(self) -> dict[str, float]:
        totals = dict.fromkeys(CLI_COMMANDS.values(), 0.0)
        for (label, cmd), v in self.op_medians().items():
            totals[CLI_COMMANDS[cmd]] += v
        return totals

    def per_layer(self, facts: list[dict], record: dict) -> dict[str, float]:
        lib = self.lib
        tr = replay.Tracer()
        traced = replay.traced_pass(lib, tr, self.instances)
        for key, text in traced.items():
            if text != self.outputs.get(key):
                self.errors.append(f"{key[0]}: traced {key[1]} output differs from the CLI's")
        selfs = tr.self_times()
        values: dict[str, float] = {f"{s}_s": selfs.get(s, 0.0) for s in LAYER_SPANS}
        values.update({c: tr.counters.get(c, 0) for c in LAYER_COUNTERS})
        cli = self.cli_totals()
        values.update(cli)
        traced_cmds = tr.totals("cmd.")
        values["trace.overhead_s"] = sum(traced_cmds.values()) - sum(cli.values())
        values["probe.failed"] = 0
        if self.workload == "deep":
            record["probe"] = self.probe()
            values["probe.failed"] = int(record["probe"]["error"] is not None)
        self.add_bounds(facts)

        def share(num: str, den: str) -> float:
            return max((f[num] / f[den] for f in facts if den in f), default=0.0)

        values["slack.width_share"] = share("width", "width_bound")
        values["slack.height_share"] = share("height", "height_bound")
        values["slack.height_bits_share"] = share("height_bits", "height_bits_bound")
        values["slack.tau_share"] = share("grid_tau", "tau_bound")
        values["slack.batches_share"] = share("batches", "batches_bound")
        record["spans_self_s"] = selfs
        record["traced_commands_s"] = traced_cmds
        record["span_count"] = len(tr.spans)
        return values

    def probe(self) -> dict:
        """shedding_sequence + grid_embed(audit=False) on a large fan; kept out
        of every timing metric and of the op counts."""
        lib = self.lib
        G = workloads.fan(lib, workloads.PROBE_FAN_N)
        t0 = perf_counter()
        try:
            a = lib.triangulation.shedding_sequence(G, G.boundary[0], G.boundary[1])
            lib.embedding.grid_embed(G, a, audit=False)
            error = None
        except Exception as exc:  # the probe exists to record this failure
            error = type(exc).__name__
        return {"instance": f"fan-{workloads.PROBE_FAN_N}", "error": error,
                "seconds": perf_counter() - t0}


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "shedpoly" / "cli.py").is_file():
        print(f"error: no shedpoly sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed)
    bench.timed_passes(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    facts = bench.sizes()
    record = {
        "environment": environment(args),
        "passes": bench.passes,
        "setup_s": bench.setup_times,
        "op_s": {f"{k[0]} {k[1]}": v for k, v in bench.times.items()},
        "instances": facts,
        "digests": {f"{k[0]} {k[1]}": sha256(v) for k, v in bench.outputs.items()},
    }
    if args.trace:
        values, group = bench.per_layer(facts, record), "per_layer"
    else:
        values, group = bench.end_to_end(facts, peak_rss_mb), "end_to_end"
    record["errors"] = bench.errors
    metrics = {}
    for m in spec[group]:
        if m["name"] not in values:
            raise KeyError(f"BENCHMARK.json names {m['name']!r}, which this run does not measure")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for line in bench.errors:
        print(f"error: {line}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
