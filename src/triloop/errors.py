"""Exception types raised across the pipeline."""


class TriloopError(Exception):
    """Base class for all library errors."""


class EmptyInput(TriloopError, ValueError):
    """An operation received an empty point cloud or scan list."""


class NonFiniteInput(TriloopError, ValueError):
    """Input points contain NaN or infinite coordinates: a scan's points, or
    the source or target points of a Correspondences3."""


class CellOutOfRange(TriloopError, ValueError):
    """Point coordinates give grid cells that do not fit a 64-bit cell key."""


class DegenerateInput(TriloopError, ValueError):
    """Point configuration too degenerate for the requested solve."""


class MalformedRecord(TriloopError):
    """A file does not hold what its format requires.

    Raised for a binary scan whose length is not a whole number of records;
    for these text rows, naming ``path:line``: a pose line with neither 12
    nor 8 values, a non-number, a NaN or infinite value or a zero
    quaternion, an ASCII PCD data row with a missing field or a non-number,
    and, in a ``records.csv`` or ``gt.csv``, a header that lacks one of the
    file's columns or names one twice (or no header at all), a row whose field count differs
    from the header's (a blank row included), a non-number, or a query id
    given twice; and for a descriptor snapshot with bad magic, an
    unsupported version or invalid header values, a truncated record, a NaN
    or infinite value, a frame id given twice, or bytes after the last
    frame.
    """


class UnsupportedFormat(TriloopError):
    """File header describes a format this reader does not handle."""


class NonPositiveLeaf(TriloopError, ValueError):
    """Voxel/pixel size must be strictly positive (NaN is rejected too)."""


class DuplicateFrame(TriloopError):
    """Frame id was already inserted into the descriptor database."""


class NoValidTransform(TriloopError):
    """RANSAC found fewer inlier pairs than the minimum required."""


class EmptyPlaneList(TriloopError, ValueError):
    """Plane overlap needs a non-empty plane set on both sides."""


class InsufficientOverlap(TriloopError):
    """Too few coinciding plane pairs to run plane-to-plane refinement."""


class ConfigError(TriloopError):
    """Invalid or inconsistent run configuration."""


class NoGroundTruth(TriloopError):
    """Precision/recall sweep requested without ground-truth loops."""
