"""rigalign: rigid 6-DoF alignment of a 3D object model to per-frame point
clouds and image features, decoded over discretized pose grids, plus the
point-cloud evaluation stack.

The package exposes no names of its own: import from the modules
(`from rigalign.align import align_sequence`). Importing the package loads
none of them, so a process that only builds scenes never loads scipy; see
`rigalign.metrics` and `rigalign.emission.EmissionEvaluator`."""

__version__ = "0.1.0"
