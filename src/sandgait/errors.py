"""Exception hierarchy.

Two broad families matter for the CLI exit-code contract: input problems
(bad files, bad config, bad parameters) exit 1, numerical/contract
failures exit 2.  ``read_text`` is the one reader of user text files,
so that undecodable bytes are an input error too.
"""
from pathlib import Path


class GaitError(Exception):
    """Base class for all errors raised by this package."""


class GaitInputError(GaitError):
    """Problems with user-supplied files, configuration, or parameters."""


class ConfigurationError(GaitInputError):
    pass


class FormatError(GaitInputError):
    """Malformed input file (bad header, non-monotone timestamps, ...)."""


class SchemaError(FormatError):
    """Marker labels do not match the configured marker schema."""


class ParameterError(GaitInputError):
    """Invalid argument to a numerical operation."""


class AlignmentError(GaitError):
    """Marker and GRF timelines do not overlap."""


class SingularSegmentError(GaitError):
    """Proximal and distal markers (near-)coincident at some frame."""


class SegmentationError(GaitError):
    """Gait events could not be detected or do not alternate."""


class InsufficientDataError(GaitError):
    """Not enough cycles/samples for the requested computation."""


class FitError(GaitError):
    """Least-squares fit is degenerate or otherwise failed."""


class ExtrapolationError(GaitError):
    """Requested point lies outside the calibrated range."""


class ContractError(GaitError):
    """Mismatched timestamps or units between coupled inputs."""


class GenerationError(GaitError):
    """Synthetic-gait profile is infeasible (e.g. foot below ground)."""


def read_text(path, error: type[GaitInputError] = FormatError) -> str:
    """A user file as UTF-8 text with universal newlines; bytes that are
    not UTF-8 raise ``error`` naming the path and the byte offset."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                    f"at offset {exc.start})") from None
