"""Exception types shared across the pipeline.

Everything derives from DialectIdError so batch drivers (CLI, dataset
builder) can catch pipeline failures without swallowing programming errors.
decode_utf8 and key_value_lines let each text input raise its own type for
undecodable bytes and for a line that is not `key = value`.
"""

from collections.abc import Iterator


class DialectIdError(Exception):
    """Base class for all pipeline errors."""


def decode_utf8(raw: bytes, error: type[DialectIdError], what: str) -> str:
    """raw as UTF-8 text, a leading byte-order mark dropped; undecodable bytes raise `error`."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8: {exc}") from exc


def key_value_lines(text: str, error: type[DialectIdError],
                    form: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each `key = value` line of text, both
    sides stripped; '#' starts a comment and blank lines are skipped.  A line
    without '=' raises `error`, naming the expected `form`."""
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"line {lineno}: expected '{form}'")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


# --- TextGrid parsing ---

class MalformedTextGrid(DialectIdError):
    """Structurally invalid TextGrid text (bad header, counts, numbers)."""


class EncodingError(DialectIdError):
    """Input bytes are not UTF-8 or BOM-marked UTF-16."""


class InvariantViolation(DialectIdError):
    """Parsed values violate a type invariant (e.g. overlapping intervals)."""


class UnknownTier(DialectIdError):
    """Requested tier name does not exist in the grid."""


class MalformedAliasTable(DialectIdError):
    """Bad line or unknown vowel in a label-alias table."""


# --- audio ---

class UnsupportedFormat(DialectIdError):
    """WAV container is valid but not PCM-16 mono/stereo."""


class CorruptContainer(DialectIdError):
    """Bytes are not a well-formed RIFF/WAVE container."""


class OutOfRange(DialectIdError):
    """Slice bounds fall outside the signal."""


class EmptySignal(DialectIdError):
    """Operation requires at least one sample."""


# --- acoustics ---

class DegenerateFrame(DialectIdError):
    """Analysis frame has zero energy."""


class NoConvergence(DialectIdError):
    """Companion-matrix LPC roots failed to converge or miss the residual bound."""


# --- features ---

class EmptyTrack(DialectIdError):
    """Cannot sample values from an empty track."""


class SegmentTooShort(DialectIdError):
    """Vowel segment shorter than the 10 ms minimum."""


class NoValidFormantFrames(DialectIdError):
    """No analysis frame of the segment produced three formants."""


class EnergyOverflow(DialectIdError):
    """A segment's samples are too large to square, resample or pre-emphasize."""


class ManifestError(DialectIdError):
    """Corpus manifest row is missing fields or names an unknown class."""


class CsvFormatError(DialectIdError):
    """Feature CSV has the wrong shape or an unparseable value."""


# --- synthesis ---

class SpecInvalid(DialectIdError):
    """A vowel or dialect specification violates its invariants, or a corpus
    names one dialect twice."""


# --- forest ---

class EmptyNode(DialectIdError):
    """Gini impurity of zero samples is undefined."""


class DegenerateData(DialectIdError):
    """Training data contains fewer than two classes."""


class LabelOutOfRange(DialectIdError):
    """A training label lies outside [0, n_classes)."""


class DimensionMismatch(DialectIdError):
    """Feature rows are not numbers in the model's width."""


class ModelFormatError(DialectIdError):
    """Model file is unreadable or has an unsupported version."""


# --- evaluation ---

class ClassTooSmall(DialectIdError):
    """A class has too few rows to split."""


class SplitRecordError(DialectIdError):
    """Split record is unreadable, names rows the file lacks or was made for other files."""


class LengthMismatch(DialectIdError):
    """Label sequences differ in length."""


class EmptyMatrix(DialectIdError):
    """Metric undefined on an empty confusion matrix."""
