"""Benchmark workloads: which instances each one builds and which CLI
commands form its pipeline.

An instance is one triangulated disk pushed through the command line as
``[gen-grid |] embed | lift | verify``.  Each command reads the previous
command's stdout; an instance with a ``start`` document begins at ``embed``,
one without begins with its generator command.  Every command is an op; ops
are tagged ``construct`` (gen-grid, embed, lift) or ``certify`` (verify).

* ``stacked``: random stacked disks, n = 160.  Triangle boundary, about a
  third of the placements high-degree, heights of about 100-160 bits.
  Stresses the peel, ``lift`` plane arithmetic (with ``--truncate``) and the
  global lift certificate, which is most of the run.
* ``grid``: random 12 x 12 lattice grids with edges inside a 3 x 3 subgrid.
  The only workload that runs the staged schedule (``gen-grid``); heights of
  170-330 bits, the largest integers of the three.
* ``deep``: a fan and a two-row ladder, n = 200 each.  Every placement is
  degree-2, the boundary is the whole vertex set and tau is about n, so chain
  checks and the per-step audit dominate while big-integer cost is almost nil.

Instance sizes keep one pass at 4-9 seconds on a 2-core x86-64 host, so a
30-second run takes the median of several passes.  The fan and ladder
ignore the seed: their shape is the point, and the greedy smallest-id
shedding rule makes any relabelling a different workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# The seed the pinned digests in golden.json were taken with, and a second
# seed kept out of development for confirming a later claim.  On the held-out
# seed every certificate is still checked; only the digest check is skipped.
DEFAULT_SEED = 0
HELD_OUT_SEED = 2026

# Each seeded workload runs COPIES instances of one size, with seeds
# COPIES * seed + k, so that no single random instance sets the figures.
COPIES = 6
STACKED_N = 160
GRID_PQL = (12, 12, 3)
FAN_N = 200
LADDER_K = 100
# shedding_sequence + grid_embed(audit=False) on this fan: raises
# RecursionError while the reduction's tree walks are recursive.
PROBE_FAN_N = 1000


@dataclass(frozen=True)
class Instance:
    label: str
    n: int
    commands: tuple[tuple[str, tuple[str, ...]], ...]  # (stage, argv)
    start: Optional[str] = None  # document fed to the first command
    grid: Optional[tuple[int, int, int]] = None  # (p, q, l) for grid instances


def fan(lib, n: int):
    """Apex 0 over the path 1..n-1: every vertex on the boundary."""
    PT = lib.triangulation.PlaneTriangulation
    return PT(range(n), [(0, i, i + 1) for i in range(1, n - 1)], tuple(range(n)))


def ladder(lib, k: int):
    """The k x 2 lattice strip with one-way diagonals (n = 2k)."""
    return lib.griddiam.uniform_grid_triangulation(k, 2).T


_EMBED_LIFT_VERIFY = (
    ("construct", ("embed",)),
    ("construct", ("lift",)),
    ("certify", ("verify",)),
)


def build(lib, run_cli, workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed.  ``lib`` holds the imported
    shedpoly modules; ``run_cli(argv, stdin)`` returns (code, stdout, stderr)."""
    seeds = [COPIES * seed + k for k in range(COPIES)]
    if workload == "stacked":
        out = []
        for s in seeds:
            code, doc, err = run_cli(["gen-stacked", str(STACKED_N), "--seed", str(s)], "")
            if code != 0:
                raise RuntimeError(f"gen-stacked exited {code}: {err.strip()}")
            cmds = (
                ("construct", ("embed",)),
                ("construct", ("lift", "--truncate")),
                ("certify", ("verify",)),
            )
            out.append(Instance(f"stacked-{STACKED_N}-s{s}", STACKED_N, cmds, start=doc))
        return out
    if workload == "grid":
        p, q, l = GRID_PQL
        return [
            Instance(
                f"grid-{p}x{q}x{l}-s{s}",
                p * q,
                (("construct", ("gen-grid", str(p), str(q), str(l), "--seed", str(s))),)
                + _EMBED_LIFT_VERIFY,
                grid=GRID_PQL,
            )
            for s in seeds
        ]
    if workload == "deep":
        write = lib.fileio.write_triangulation
        return [
            Instance(f"fan-{FAN_N}", FAN_N, _EMBED_LIFT_VERIFY, start=write(fan(lib, FAN_N))),
            Instance(
                f"ladder-{LADDER_K}x2",
                2 * LADDER_K,
                _EMBED_LIFT_VERIFY,
                start=write(ladder(lib, LADDER_K)),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("stacked", "grid", "deep")
