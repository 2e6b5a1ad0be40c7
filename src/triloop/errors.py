"""Exception types raised across the pipeline."""


class TriloopError(Exception):
    """Base class for all library errors."""


class EmptyInput(TriloopError, ValueError):
    """An operation received an empty point cloud or scan list."""


class NonFiniteInput(TriloopError, ValueError):
    """Input points contain NaN or infinite coordinates."""


class CellOutOfRange(TriloopError, ValueError):
    """Point coordinates give grid cells that do not fit a 64-bit cell key."""


class DegenerateInput(TriloopError, ValueError):
    """Point configuration too degenerate for the requested solve."""


class MalformedRecord(TriloopError):
    """Binary scan file length is not a whole number of records."""


class UnsupportedFormat(TriloopError):
    """File header describes a format this reader does not handle."""


class NonPositiveLeaf(TriloopError, ValueError):
    """Voxel/pixel size must be strictly positive."""


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
