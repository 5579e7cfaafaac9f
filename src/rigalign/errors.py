"""Exception hierarchy shared across the package. The CLI exits 2 on
`InvalidInput` (the input is wrong) and 3 on any other `RigalignError`."""


class RigalignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RigalignError, ValueError):
    """An input value, file or argument is out of range or malformed."""


class ConfigError(InvalidInput):
    """Invalid or inconsistent run configuration."""


class ParseError(InvalidInput):
    """A referenced file is missing or malformed."""


class EmptyMesh(RigalignError):
    """Mesh has no faces."""


class EmptyCloud(RigalignError):
    """Point cloud has no points."""


class DegenerateCloud(RigalignError):
    """Point cloud carries no usable spatial extent."""


class DegenerateGeometry(RigalignError):
    """Geometry is degenerate: zero surface area or a rank-deficient fit."""
