import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid.errors import (
    DialectIdError,
    EncodingError,
    InvariantViolation,
    MalformedAliasTable,
    MalformedTextGrid,
    UnknownTier,
)
from dialectid.textgrid import (
    MONOPHTHONGS,
    Interval,
    Point,
    PointTier,
    TextGrid,
    Tier,
    parse_alias_table,
    parse_textgrid,
    serialize_textgrid,
    vowel_intervals,
)

MINIMAL = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 0.5
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "phoneme"
        xmin = 0
        xmax = 0.5
        intervals: size = 1
        intervals [1]:
            xmin = 0.0
            xmax = 0.5
            text = "a"
""".encode()


def test_parse_minimal_file():
    grid = parse_textgrid(MINIMAL)
    assert grid.x_min == 0.0 and grid.x_max == 0.5
    assert len(grid.tiers) == 1
    tier = grid.tiers[0]
    assert tier.name == "phoneme"
    assert tier.intervals == (Interval(0.0, 0.5, "a"),)


def test_serialize_contains_interval_tier_marker():
    grid = TextGrid(0.0, 1.0, (Tier("t", 0.0, 1.0, (Interval(0.25, 0.75, "a"),)),))
    text = serialize_textgrid(grid).decode()
    assert 'class = "IntervalTier"' in text
    assert "0.25" in text and "0.75" in text


def test_empty_label_serialized_as_quotes():
    grid = TextGrid(0.0, 1.0, (Tier("t", 0.0, 1.0, (Interval(0.0, 1.0, ""),)),))
    assert 'text = ""' in serialize_textgrid(grid).decode()


def test_interval_count_mismatch_rejected():
    bad = MINIMAL.replace(b"intervals: size = 1", b"intervals: size = 3")
    with pytest.raises(MalformedTextGrid):
        parse_textgrid(bad)


def test_missing_header_rejected():
    with pytest.raises(MalformedTextGrid):
        parse_textgrid(b'Object class = "TextGrid"\nxmin = 0\n')


def test_short_format_rejected():
    short = b'File type = "ooTextFile"\nObject class = "TextGrid"\n\n0\n0.5\n<exists>\n1\n'
    with pytest.raises(MalformedTextGrid):
        parse_textgrid(short)


def test_non_numeric_time_rejected():
    bad = MINIMAL.replace(b"xmax = 0.5", b"xmax = banana", 1)
    with pytest.raises(MalformedTextGrid):
        parse_textgrid(bad)


def test_undecodable_bytes_rejected():
    with pytest.raises(EncodingError):
        parse_textgrid(b"\xff\x01\x02\x03junk")


def test_overlapping_intervals_rejected():
    with pytest.raises(InvariantViolation):
        Tier("t", 0.0, 2.0, (Interval(0.0, 1.2, "a"), Interval(1.0, 2.0, "b")))


def test_utf16_with_bom_accepted():
    for enc, bom in (("utf-16-le", b"\xff\xfe"), ("utf-16-be", b"\xfe\xff")):
        raw = bom + MINIMAL.decode().encode(enc)
        assert parse_textgrid(raw).tiers[0].name == "phoneme"


def test_quotes_in_labels_roundtrip():
    grid = TextGrid(0.0, 1.0, (Tier("t", 0.0, 1.0,
                                    (Interval(0.0, 1.0, 'say "hi" now'),)),))
    assert parse_textgrid(serialize_textgrid(grid)) == grid


def test_point_tier_roundtrip_and_ignored_by_vowels():
    grid = TextGrid(0.0, 1.0, (
        Tier("phones", 0.0, 1.0, (Interval(0.1, 0.3, "a"),)),
        PointTier("beats", 0.0, 1.0, (Point(0.2, "x"), Point(0.7, "a"))),
    ))
    assert parse_textgrid(serialize_textgrid(grid)) == grid
    assert vowel_intervals(grid, "beats") == []
    assert [v.vowel for v in vowel_intervals(grid, "phones")] == ["a"]


def test_mixed_tier_writer_bytes_pinned():
    # the reader strips blanks, so only the written bytes pin indentation
    grid = TextGrid(0.0, 1.0, (
        Tier("phones", 0.0, 1.0, (Interval(0.0, 0.1 + 0.2, 'say "hi"'),
                                  Interval(0.1 + 0.2, 1.0, ""))),
        PointTier("beats", 0.0, 1.0, (Point(0.1 + 0.2, ""), Point(0.75, 'a "b"'))),
    ))
    raw = serialize_textgrid(grid)
    assert b"number = 0.30000000000000004\n" in raw
    assert hashlib.sha256(raw).hexdigest() == (
        "9083be98d003a46614cc7c5202cfc955bd13eaf206194187fa618c62ba18b528")
    assert parse_textgrid(raw) == grid
    assert parse_textgrid(raw.replace(b"points: size", b"points:size")) == grid


@pytest.mark.parametrize("raw", [
    b"\xef\xbb\xbf" + MINIMAL,
    b"\xff\xfe" + MINIMAL.decode().encode("utf-16-le"),
    b"\xfe\xff" + MINIMAL.decode().encode("utf-16-be"),
    MINIMAL.replace(b"intervals: size = 1", b"intervals:size = 1"),
    MINIMAL.replace(b"    ", b"\t"),
], ids=["utf8-bom", "utf16-le", "utf16-be", "count-without-blank", "tabs"])
def test_reader_accepts_variants(raw):
    assert parse_textgrid(raw) == parse_textgrid(MINIMAL)


def _bounds(grid: tuple[bytes, bytes], tier: tuple[bytes, bytes],
            interval: tuple[bytes, bytes] | None = None) -> bytes:
    """MINIMAL with the grid's and the tier's xmin/xmax replaced, holding
    one interval [xmin, xmax] or, for None, none."""
    lines = MINIMAL.split(b"\n")
    at = [i for i, line in enumerate(lines) if line.strip().startswith(b"xm")]
    for i, value in zip(at, grid + tier + (interval or ())):
        lines[i] = lines[i].split(b"=")[0] + b"= " + value
    raw = b"\n".join(lines)
    if interval is None:
        raw = raw[: raw.index(b"intervals: size")] + b"intervals: size = 0\n"
    return raw


@pytest.mark.parametrize("raw, error", [
    (MINIMAL.replace(b'"IntervalTier"', b'"PolygonTier"'), MalformedTextGrid),
    (b'File type = "ooTextFile"\nObject class = "TextGrid"\n\n0\n0.5\n<exists>\n1\n',
     MalformedTextGrid),
    (_bounds((b"nan", b"-3"), (b"5", b"1")), InvariantViolation),
    (_bounds((b"0", b"0.5"), (b"nan", b"nan"), (b"0", b"1e300")), InvariantViolation),
    (_bounds((b"0", b"inf"), (b"0", b"0.5")), InvariantViolation),
    (_bounds((b"0", b"0.5"), (b"0.5", b"0.5")), InvariantViolation),
], ids=["unknown-class", "short-format", "grid-nan-reversed", "tier-nan", "grid-inf",
        "tier-empty-span"])
def test_reader_rejects_variants(raw, error):
    with pytest.raises(error):
        parse_textgrid(raw)


def test_vowel_selection_skips_consonants_and_diphthongs():
    labels = ["sil", "a", "t", "i", "əi"]
    intervals = tuple(Interval(i * 0.1, (i + 1) * 0.1, lab)
                      for i, lab in enumerate(labels))
    grid = TextGrid(0.0, 1.0, (Tier("ph", 0.0, 1.0, intervals),))
    got = vowel_intervals(grid, "ph")
    assert [v.vowel for v in got] == ["a", "i"]
    assert got[0].interval.t_start < got[1].interval.t_start


def test_vowel_selection_no_vowels_empty():
    grid = TextGrid(0.0, 1.0, (Tier("ph", 0.0, 1.0, (Interval(0.0, 1.0, "k"),)),))
    assert vowel_intervals(grid, "ph") == []


def test_unknown_tier():
    grid = parse_textgrid(MINIMAL)
    with pytest.raises(UnknownTier):
        vowel_intervals(grid, "words")


def test_alias_table():
    table = parse_alias_table("# comment\nschwa=ə\nAA = a\n\n")
    assert table == {"schwa": "ə", "AA": "a"}
    grid = TextGrid(0.0, 1.0, (Tier("ph", 0.0, 1.0, (Interval(0.0, 0.5, "schwa"),)),))
    assert [v.vowel for v in vowel_intervals(grid, "ph", table)] == ["ə"]
    with pytest.raises(MalformedAliasTable):
        parse_alias_table("x=q")
    with pytest.raises(MalformedAliasTable):
        parse_alias_table("just a line")


@pytest.mark.parametrize("x_min, x_max", [
    (float("nan"), 1.0), (0.0, float("nan")), (1.0, 1.0), (1.0, 0.5),
    (-float("inf"), 1.0), (0.0, float("inf")),
])
def test_bad_bounds_rejected(x_min, x_max):
    tier = Tier("t", 0.0, 1.0, ())
    for make in (lambda: TextGrid(x_min, x_max, (tier,)),
                 lambda: Tier("t", x_min, x_max, ()),
                 lambda: PointTier("p", x_min, x_max, ())):
        with pytest.raises(InvariantViolation, match="bounds"):
            make()


def test_grid_and_tier_may_start_before_zero():
    grid = TextGrid(-1.0, 1.0, (PointTier("p", -0.5, 0.5, (Point(0.25, "x"),)),))
    assert parse_textgrid(serialize_textgrid(grid)) == grid


def test_duplicate_tier_names_rejected():
    tier = Tier("t", 0.0, 1.0, ())
    with pytest.raises(InvariantViolation):
        TextGrid(0.0, 1.0, (tier, tier))


@pytest.mark.parametrize("grid_span, tier", [
    # a tier reaching far past its grid would hand out a 1e300 s vowel
    ((0.0, 0.5), Tier("phoneme", 0.0, 1e300, (Interval(0.1, 1e300, "a"),))),
    ((5.0, 6.0), Tier("phoneme", 0.0, 1.0, ())),
    ((0.0, 1.0), PointTier("p", -0.5, 1.0, ())),
], ids=["tier-past-the-end", "tier-before-the-grid", "point-tier-before-the-grid"])
def test_tier_outside_grid_rejected(grid_span, tier):
    with pytest.raises(InvariantViolation, match="outside grid"):
        TextGrid(*grid_span, (tier,))


@pytest.mark.parametrize("raw", [
    _bounds((b"0", b"0.5"), (b"0", b"1e300"), (b"0.1", b"1e300")),
    _bounds((b"5", b"6"), (b"0", b"1")),
], ids=["tier-past-the-end", "tier-before-the-grid"])
def test_reader_rejects_tier_outside_grid(raw):
    with pytest.raises(InvariantViolation, match="outside grid"):
        parse_textgrid(raw)


# --- property tests ---

label_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\n\r"),
    max_size=6)


@st.composite
def interval_tiers(draw, name):
    n_intervals = draw(st.integers(0, 6))
    bounds = draw(st.lists(st.integers(0, 10_000), unique=True,
                           min_size=2 * n_intervals, max_size=2 * n_intervals))
    bounds = sorted(bounds)
    intervals = tuple(
        Interval(bounds[2 * i] / 100.0, bounds[2 * i + 1] / 100.0, draw(label_text))
        for i in range(n_intervals))
    return Tier(name, 0.0, 101.0, intervals)


@st.composite
def point_tiers(draw, name):
    times = sorted(draw(st.lists(st.integers(0, 10_000), unique=True, max_size=5)))
    points = tuple(Point(t / 100.0, draw(label_text)) for t in times)
    return PointTier(name, 0.0, 101.0, points)


@st.composite
def textgrids(draw):
    n_tiers = draw(st.integers(1, 3))
    tiers = []
    for i in range(n_tiers):
        name = f"tier{i}_" + draw(label_text)
        if draw(st.booleans()):
            tiers.append(draw(interval_tiers(name)))
        else:
            tiers.append(draw(point_tiers(name)))
    return TextGrid(0.0, 101.0, tuple(tiers))


@settings(max_examples=100, deadline=None)
@given(textgrids())
def test_roundtrip_identity(grid):
    assert parse_textgrid(serialize_textgrid(grid)) == grid


@settings(max_examples=50, deadline=None)
@given(textgrids())
def test_vowel_intervals_sorted_sublist(grid):
    tier = grid.tiers[0]
    got = vowel_intervals(grid, tier.name)
    assert all(v.vowel in MONOPHTHONGS for v in got)
    times = [v.interval.t_start for v in got]
    assert times == sorted(times)
    if isinstance(tier, Tier):
        source = list(tier.intervals)
        assert all(v.interval in source for v in got)


@settings(max_examples=200, deadline=None)
@given(textgrids(), st.lists(st.tuples(st.integers(0, 10**6),
                                       st.sampled_from(list(b'0123456789."-=e+ \n\xff'))),
                             min_size=1, max_size=3))
def test_mutated_textgrid_rejected_or_parsed(grid, patches):
    raw = bytearray(serialize_textgrid(grid))
    for offset, byte in patches:
        raw[offset % len(raw)] = byte
    try:
        parsed = parse_textgrid(bytes(raw))
    except DialectIdError:
        return
    assert isinstance(parsed, TextGrid)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="=#\n\r\x85 aeə\x00", max_size=16))
def test_alias_table_rejected_or_maps_onto_monophthongs(text):
    try:
        table = parse_alias_table(text)
    except MalformedAliasTable:
        return
    assert all(alias and vowel in MONOPHTHONGS for alias, vowel in table.items())
