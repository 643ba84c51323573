"""Exception types shared across the lane3d package.

Every failure mode that callers are expected to handle gets its own class
so the CLI can map it to a distinct exit code.  All of them derive from
``Lane3DError``.
"""


class Lane3DError(Exception):
    """Base class for all lane3d errors."""


class ConfigError(Lane3DError):
    """Invalid or inconsistent configuration value."""


class SingularRow(Lane3DError):
    """Curve evaluated at a row too close to the denominator singularity."""


class BehindCamera(Lane3DError):
    """Point projects behind (or onto) the camera plane."""


class NoGroundIntersection(Lane3DError):
    """Pixel ray is parallel to or diverges from the ground plane."""


class Underdetermined(Lane3DError):
    """Curve fit has fewer data points than free parameters."""


class DegenerateLane(Lane3DError):
    """Lane has fewer than two visible points and cannot be interpolated."""


class ZeroLengthSegment(Lane3DError):
    """Segment endpoints coincide; no direction can be derived."""


class NumericallySingular(Lane3DError):
    """A Gaussian extent falls below the minimum uncertainty floor."""


class NoFeasibleAssignment(Lane3DError):
    """Every complete assignment would use a forbidden (infinite-cost) pair."""


class AnchorMismatch(Lane3DError):
    """Lanes are not sampled on the shared y-anchor grid."""


class ParseError(Lane3DError):
    """Malformed frame file.  Carries the line number and the field path."""

    def __init__(self, message: str, line: int | None = None,
                 field: str | None = None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field:
            where.append(f"field {field}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class SchemaVersionMismatch(ParseError):
    """Frame record carries an unsupported format version."""


class MissingFrame(Lane3DError):
    """A prediction frame_id has no ground-truth counterpart."""


class MissingField(Lane3DError):
    """A lane record lacks a component required by the requested computation."""


class RasterOverflow(Lane3DError):
    """A BEV stroke needs more window cells, or larger cell indices, than
    the rasterizer allows.  ``lane`` is the lane's index among those
    stroked together."""

    def __init__(self, message: str, lane: int):
        self.lane = lane
        super().__init__(message)


class IoError(Lane3DError):
    """A file could not be read or written."""
