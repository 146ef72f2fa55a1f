"""shedpoly: realize plane triangulations as convex polyhedra on small integer grids.

The pipeline, bottom to top:

* :mod:`shedpoly.exactgeom` -- exact integer primitives (orientation, slope
  comparison, ceil division, planes).  No floats and no fractions anywhere in
  this package.
* :mod:`shedpoly.triangulation` -- combinatorial plane triangulations,
  validation, shedding vertices and shedding sequences.
* :mod:`shedpoly.reduction` -- shedding trees, their reduction, and the small
  convex "template" triangulation built from the reduced tree.
* :mod:`shedpoly.embedding` -- sequentially convex straight-line drawings on
  a 4n^3 x 8n^5 integer grid.
* :mod:`shedpoly.lifting` -- minimal strictly-convex integer lifts and the
  truncation to a bounded polytope.
* :mod:`shedpoly.griddiam` -- shedding depth: exact small-instance minimum,
  the DAG height tau(a), and the staged antichain schedule for grid
  triangulations with its 6*l*(p+q) bound.
* :mod:`shedpoly.verify` -- independent certificate checkers that re-derive
  everything from coordinates.
* :mod:`shedpoly.fileio`, :mod:`shedpoly.corpus`, :mod:`shedpoly.cli` -- file
  formats, instance generators, command line.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
