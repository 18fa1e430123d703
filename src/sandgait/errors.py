"""Exception hierarchy.

Two broad families matter for the CLI exit-code contract: input problems
(bad files, bad config, bad parameters) exit 1, numerical/contract
failures exit 2.  ``decode_utf8`` is the one decoder of user text files
(``read_text`` reads one through it), so that undecodable bytes are an
input error too; ``read_json`` adds the same for malformed JSON, and
``read_json_as`` for a document that does not convert.  ``check_number``
is the one rule for a number in such a document.
"""
import json
import math
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


def decode_utf8(path, raw: bytes,
                error: type[GaitInputError] = FormatError, at: int = 0) -> str:
    """The bytes ``raw`` of user file ``path``, which start at offset ``at``
    of the file, as UTF-8 text; bytes that are not UTF-8 raise ``error``
    naming the path and the byte's offset in the file."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                    f"at offset {at + exc.start})") from None


def read_text(path, error: type[GaitInputError] = FormatError,
              raw: bytes | None = None) -> str:
    """A user file, or its bytes ``raw`` where they were read already, as
    UTF-8 text (see ``decode_utf8``) with universal newlines."""
    raw = Path(path).read_bytes() if raw is None else raw
    text = decode_utf8(path, raw, error)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path, error: type[GaitInputError] = FormatError):
    """A user JSON file; undecodable bytes or invalid JSON raise ``error``
    naming the path."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None


def read_json_as(path, build, what: str,
                 error: type[GaitInputError] = FormatError):
    """``build(doc)`` of a user JSON file read with ``error``.  A missing
    key, a value of the wrong type, or one that ``build`` rejects with
    ``ConfigurationError`` raises ``ConfigurationError`` naming the path
    and ``what`` it holds."""
    doc = read_json(path, error)
    try:
        return build(doc)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing {what} field {exc}") from None
    except ConfigurationError as exc:  # a value ``build`` rejects
        raise ConfigurationError(f"{path}: {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path}: malformed {what} ({exc})") from None


def check_number(key: str, value, rule: str | None = None) -> float:
    """``float(value)`` of the user number ``key``, which must pass ``rule``
    (``"> 0"``, ``">= 0"`` or None) and be finite; else ``ConfigurationError``
    quoting ``value``.  A NaN fails the rule, so it reads "must be > 0".  A
    bool, or a value ``float()`` refuses, is no number (a numeric string is
    one), and an integer past the float range is not finite."""
    if isinstance(value, bool):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigurationError(f"{key} must be finite, got an integer "
                                 f"too large for a float") from None
    except (TypeError, ValueError):
        raise ConfigurationError(f"{key} must be a number, "
                                 f"got {value!r}") from None
    if rule == "> 0" and not x > 0 or rule == ">= 0" and not x >= 0:
        raise ConfigurationError(f"{key} must be {rule}, got {value!r}")
    if not math.isfinite(x):
        raise ConfigurationError(f"{key} must be finite, got {value!r}")
    return x
