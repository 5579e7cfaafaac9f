"""One exception class per CLI exit code. The CLI exits 2 on `InvalidInput`
(the input is wrong) and 3 on any other `RigalignError`: a
`DegenerateGeometry`, where valid input reached a geometric dead end."""


class RigalignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RigalignError, ValueError):
    """An input value, config key, file or argument is missing, out of range
    or malformed."""


class DegenerateGeometry(RigalignError):
    """Geometry is degenerate: an empty mesh or cloud, a cloud or model of
    zero extent, zero or overflowing surface area, or a rank-deficient fit."""
