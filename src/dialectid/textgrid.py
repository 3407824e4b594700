"""Praat TextGrid reading, writing and vowel-interval selection.

Only the long ("ooTextFile") format is supported; short-format files are
rejected.  Input may be UTF-8 (with or without BOM) or BOM-marked UTF-16;
output is always UTF-8.  Interval tiers carry the annotation; point tiers
are preserved through a parse/serialize round trip but never yield vowel
intervals.  `_KINDS`, the one statement of the format's tiers, gives each
tier class's types, item-list name, time keys and label key; the reader and
the writer both walk it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .errors import (
    EncodingError,
    InvariantViolation,
    MalformedAliasTable,
    MalformedTextGrid,
    UnknownTier,
    key_value_lines,
)

MONOPHTHONGS = ("ə", "e", "i", "o", "u", "a")  # ə e i o u a


def _check_label(label: str) -> str:
    if "\n" in label or "\r" in label:
        raise InvariantViolation("labels must be single-line")
    return label


def _check_span(obj) -> None:
    """A grid's or tier's bounds: finite, with x_min below x_max."""
    if not -float("inf") < obj.x_min < obj.x_max < float("inf"):
        raise InvariantViolation(f"bad {type(obj).__name__} bounds [{obj.x_min}, {obj.x_max}]")


@dataclass(frozen=True)
class Interval:
    t_start: float
    t_end: float
    label: str

    def __post_init__(self):
        if not (self.t_start >= 0 and self.t_start < self.t_end and self.t_end < float("inf")):
            raise InvariantViolation(
                f"bad interval bounds [{self.t_start}, {self.t_end}]")
        _check_label(self.label)


@dataclass(frozen=True)
class Point:
    time: float
    label: str

    def __post_init__(self):
        if not (0 <= self.time < float("inf")):
            raise InvariantViolation(f"bad point time {self.time}")
        _check_label(self.label)


@dataclass(frozen=True)
class Tier:
    name: str
    x_min: float
    x_max: float
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        _check_span(self)
        prev_end = None
        for iv in self.intervals:
            if iv.t_start < self.x_min or iv.t_end > self.x_max:
                raise InvariantViolation(
                    f"interval [{iv.t_start}, {iv.t_end}] outside tier "
                    f"[{self.x_min}, {self.x_max}]")
            if prev_end is not None and iv.t_start < prev_end:
                raise InvariantViolation(
                    f"intervals overlap or are unsorted at t={iv.t_start}")
            prev_end = iv.t_end


@dataclass(frozen=True)
class PointTier:
    name: str
    x_min: float
    x_max: float
    points: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _check_span(self)
        prev = None
        for p in self.points:
            if p.time < self.x_min or p.time > self.x_max:
                raise InvariantViolation(f"point {p.time} outside tier bounds")
            if prev is not None and p.time <= prev:
                raise InvariantViolation(f"points unsorted at t={p.time}")
            prev = p.time


@dataclass(frozen=True)
class TextGrid:
    x_min: float
    x_max: float
    tiers: tuple[Tier | PointTier, ...]

    def __post_init__(self):
        object.__setattr__(self, "tiers", tuple(self.tiers))
        _check_span(self)
        if not self.tiers:
            raise InvariantViolation("a TextGrid needs at least one tier")
        for t in self.tiers:
            if t.x_min < self.x_min or t.x_max > self.x_max:
                raise InvariantViolation(f"tier {t.name!r} [{t.x_min}, {t.x_max}] outside "
                                         f"grid [{self.x_min}, {self.x_max}]")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise InvariantViolation("tier names must be unique")

    def tier(self, name: str) -> Tier | PointTier:
        for t in self.tiers:
            if t.name == name:
                return t
        raise UnknownTier(f"no tier named {name!r}")


@dataclass(frozen=True)
class VowelInterval:
    interval: Interval
    vowel: str

    def __post_init__(self):
        if self.vowel not in MONOPHTHONGS:
            raise InvariantViolation(f"{self.vowel!r} is not a monophthong label")


# The layout of one tier class in the long format (see _KINDS).
@dataclass(frozen=True)
class _Kind:
    tier: type                          # Tier or PointTier
    item: type                          # built from its times, then its label
    items: str                          # the item-list name and the tier's attribute
    times: dict[str, str]               # file key: item attribute, in file order
    label: str                          # the label's file key


_KINDS = {
    "IntervalTier": _Kind(Tier, Interval, "intervals",
                          {"xmin": "t_start", "xmax": "t_end"}, "text"),
    "TextTier": _Kind(PointTier, Point, "points", {"number": "time"}, "mark"),
}


def _decode(raw: bytes) -> str:
    # both codecs drop the byte-order mark themselves
    enc = "utf-16" if raw[:2] in (b"\xff\xfe", b"\xfe\xff") else "utf-8-sig"
    try:
        return raw.decode(enc)
    except UnicodeDecodeError as exc:
        raise EncodingError(f"cannot decode TextGrid bytes: {exc}") from exc


@cache
def _key_pattern(key: str, value: str) -> re.Pattern[str]:
    """The compiled `key = value` line pattern; keys and values come from
    this module's literals, so the cache stays a few entries long.  The
    blank after a colon in a key is optional (`intervals:size = 3`)."""
    key = re.escape(key).replace(r":\ ", r":\s*")
    return re.compile(rf"{key}\s*=\s*{value}")


class _Lines:
    """Cursor over stripped lines with structured-failure accessors.

    Splits on \\n / \\r\\n only; exotic Unicode line separators inside quoted
    labels must survive, so splitlines() is deliberately avoided.
    """

    def __init__(self, text: str):
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.lines = [ln.strip(" \t") for ln in text.split("\n")]
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line:
                return line
        raise MalformedTextGrid("unexpected end of file")

    def expect(self, literal: str) -> None:
        line = self.next()
        if line != literal:
            raise MalformedTextGrid(f"expected {literal!r}, got {line!r}")

    def number(self, key: str) -> float:
        line = self.next()
        m = _key_pattern(key, r"(\S+)").fullmatch(line)
        if not m:
            raise MalformedTextGrid(f"expected '{key} = <number>', got {line!r}")
        try:
            return float(m.group(1))
        except ValueError as exc:
            raise MalformedTextGrid(f"non-numeric {key}: {m.group(1)!r}") from exc

    def integer(self, key: str) -> int:
        line = self.next()
        m = _key_pattern(key, r"(\d+)").fullmatch(line)
        if not m:
            raise MalformedTextGrid(f"expected '{key} = <count>', got {line!r}")
        return int(m.group(1))

    def string(self, key: str) -> str:
        line = self.next()
        m = _key_pattern(key, r'"(.*)"').fullmatch(line)
        if not m:
            raise MalformedTextGrid(f"expected quoted {key}, got {line!r}")
        return m.group(1).replace('""', '"')


def parse_textgrid(raw: bytes) -> TextGrid:
    """Parse a long-format ooTextFile TextGrid."""
    cur = _Lines(_decode(raw))
    if cur.string("File type") != "ooTextFile":
        raise MalformedTextGrid("not an ooTextFile")
    if cur.string("Object class") != "TextGrid":
        raise MalformedTextGrid("not a TextGrid object")
    x_min, x_max = cur.number("xmin"), cur.number("xmax")
    cur.expect("tiers? <exists>")
    n_tiers = cur.integer("size")
    cur.expect("item []:")
    tiers: list[Tier | PointTier] = []
    for i in range(1, n_tiers + 1):
        cur.expect(f"item [{i}]:")
        klass = cur.string("class")
        name, t_min, t_max = cur.string("name"), cur.number("xmin"), cur.number("xmax")
        if klass not in _KINDS:
            raise MalformedTextGrid(f"unknown tier class {klass!r}")
        kind = _KINDS[klass]
        items = []
        for j in range(1, cur.integer(f"{kind.items}: size") + 1):
            cur.expect(f"{kind.items} [{j}]:")
            items.append(kind.item(*map(cur.number, kind.times), cur.string(kind.label)))
        tiers.append(kind.tier(name, t_min, t_max, tuple(items)))
    return TextGrid(x_min, x_max, tuple(tiers))


def _quote(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def _num(x: float) -> str:
    return repr(float(x))


def serialize_textgrid(grid: TextGrid) -> bytes:
    """Emit long-format UTF-8 text that parse_textgrid maps back to `grid`.

    Times are written with repr() so float values survive the round trip
    exactly.
    """
    out = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        f"xmin = {_num(grid.x_min)}",
        f"xmax = {_num(grid.x_max)}",
        "tiers? <exists>",
        f"size = {len(grid.tiers)}",
        "item []:",
    ]
    for i, tier in enumerate(grid.tiers, 1):
        klass, kind = next((c, k) for c, k in _KINDS.items() if isinstance(tier, k.tier))
        items = getattr(tier, kind.items)
        out += [f"    item [{i}]:", f'        class = "{klass}"',
                f"        name = {_quote(tier.name)}", f"        xmin = {_num(tier.x_min)}",
                f"        xmax = {_num(tier.x_max)}", f"        {kind.items}: size = {len(items)}"]
        for j, item in enumerate(items, 1):
            out.append(f"        {kind.items} [{j}]:")
            for key, attr in kind.times.items():
                out.append(f"            {key} = {_num(getattr(item, attr))}")
            out.append(f"            {kind.label} = {_quote(item.label)}")
    return ("\n".join(out) + "\n").encode("utf-8")


def parse_alias_table(text: str) -> dict[str, str]:
    """Parse `label=vowel` lines; '#' starts a comment, blanks are skipped."""
    table: dict[str, str] = {}
    for lineno, alias, vowel in key_value_lines(text, MalformedAliasTable, "label=vowel"):
        if vowel not in MONOPHTHONGS:
            raise MalformedAliasTable(
                f"line {lineno}: {vowel!r} is not one of {'/'.join(MONOPHTHONGS)}")
        if not alias:
            raise MalformedAliasTable(f"line {lineno}: empty label")
        table[alias] = vowel
    return table


def vowel_intervals(grid: TextGrid, tier_name: str,
                    aliases: dict[str, str] | None = None) -> list[VowelInterval]:
    """Intervals of the named tier whose trimmed label is a monophthong.

    The alias table maps corpus-specific spellings onto the six-vowel set
    before matching.  Point tiers exist in grids but carry no intervals, so
    naming one returns an empty list.
    """
    tier = grid.tier(tier_name)
    if isinstance(tier, PointTier):
        return []
    found = []
    for iv in tier.intervals:
        label = iv.label.strip()
        if aliases and label in aliases:
            label = aliases[label]
        if label in MONOPHTHONGS:
            found.append(VowelInterval(iv, label))
    return found
