"""The dataset reader: numpy's text reader parses the required columns, and
the csv module reads the header, the id column, and every row of a body the
reader cannot vouch for. Both give float()'s bits on the cells they accept,
and one cell syntax holds: float()'s, on ASCII text, without underscores."""

import codecs
import csv
import io
import itertools
import math
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import gimbal.cli as cli
from gimbal.cli import main, read_dataset
from gimbal.neighborhood import ConfigurationError

REQUIRED = ("lat", "lon", "x", "y")


def reference_read(path):
    """The dataset as the csv module and float() read it, row by row, with
    the cell syntax: ({column: list of floats}, ids or None), or the error
    message of the first bad row. Written apart from the reader, as it read
    every file before numpy parsed the columns."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(itertools.dropwhile(lambda row: row[0].startswith("#"), filter(None, csv.reader(fh))))
    header = [name.strip() for name in rows[0]]
    col = {name: header.index(name) for name in header}
    data = {name: [] for name in REQUIRED}
    for row_no, row in enumerate(rows[1:]):
        if len(row) != len(header):
            return f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}"
        for name in REQUIRED:
            raw = row[col[name]]
            try:
                if "_" in raw or not raw.isascii():
                    raise ValueError(raw)
                data[name].append(float(raw))
            except ValueError:
                return f"{path}: row {row_no}: column {name} is not numeric ({raw!r})"
    return data, [row[col["id"]] for row in rows[1:]] if "id" in col else None


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_reads_as_reference(path):
    expected = reference_read(path)
    if isinstance(expected, str):
        with pytest.raises(ConfigurationError) as err:
            read_dataset(path)
        assert str(err.value) == expected
        return
    data, ids = expected
    ds = read_dataset(path)
    for name in REQUIRED:
        assert np.array_equal(bits(getattr(ds, name)), bits(data[name])), name
    assert (ds.ids is None) if ids is None else ds.ids.tolist() == ids


# ---- file fixtures: the reference's dataset, or its exit-2 message

ROWS = "35.0,135.0,0.5,1.25\n35.01,135.02,-1e-3,2.0\n35.02,135.0,1.5E+2,-0.75\n"


def lines(text, end):
    return text.replace("\n", end)


FIXTURES = {
    "lf": "lat,lon,x,y\n" + ROWS,
    "crlf": lines("lat,lon,x,y\n" + ROWS, "\r\n"),
    "lone_cr": lines("lat,lon,x,y\n" + ROWS, "\r"),
    "no_final_line_end": "lat,lon,x,y\n" + ROWS.rstrip("\n"),
    "bom": "\ufefflat,lon,x,y\n" + ROWS,
    "bom_crlf_comments": lines("\ufeff# schema: gimbal.dataset.v1\n#,note\nlat,lon,x,y\n" + ROWS, "\r\n"),
    "blank_lines": "\nlat,lon,x,y\n\n" + ROWS.replace("\n", "\n\n", 1) + "\n\n",
    "blank_lines_crlf": lines("\nlat,lon,x,y\n\n" + ROWS.replace("\n", "\n\n", 1) + "\n", "\r\n"),
    "whitespace_line": "lat,lon,x,y\n" + ROWS.replace("\n", "\n  \n", 1),
    "tab_line": "lat,lon,x,y\n" + ROWS.replace("\n", "\n\t\n", 1),
    "comment_row_after_header": "lat,lon,x,y\n" + ROWS + "# a note,1,2,3\n",
    "comment_row_short": "lat,lon,x,y\n" + ROWS + "# a note\n",
    "quoted_ids": ('id,lat,lon,x,y\n"a,b",35.0,135.0,0.5,1.25\n"say ""hi""",35.01,135.02,-1e-3,2.0\n'
                   '"two\nlines",35.02,135.0,1.5E+2,-0.75\n,35.03,135.01,0.0,1.0\n'),
    "quoted_ids_crlf": ('id,lat,lon,x,y\r\n"a,b",35.0,135.0,0.5,1.25\r\n"say ""hi""",35.01,135.02,-1e-3,2.0\r\n'
                        '"two\r\nlines",35.02,135.0,1.5E+2,-0.75\r\n" spaced ",35.03,135.01,0.0,1.0\r\n'),
    "quoted_id_lone_cr": 'id,lat,lon,x,y\n"a\rb",35.0,135.0,0.5,1.25\nc,35.01,135.02,-1e-3,2.0\n',
    "id_last": "lat,lon,x,y,id\n" + ROWS.replace("\n", ",p\n"),
    "id_with_nul": "id,lat,lon,x,y\na\x00,35.0,135.0,0.5,1.25\nb,35.01,135.02,-1e-3,2.0\n",
    "quoted_numbers": 'lat,lon,x,y\n"35.0","135.0","0.5","1.25"\n35.01,135.02,-1e-3,2.0\n',
    "spaces_around_numbers": "lat,lon,x,y\n 35.0 ,\t135.0,0.5 ,1.25\n",
    "other_text_column": "name,lat,lon,x,y,beta\nalpha,35.0,135.0,0.5,1.25,9\nbeta,35.01,135.02,-1e-3,2.0,8\n",
    "header_only": "lat,lon,x,y\n",
    "header_only_crlf": "lat,lon,x,y\r\n",
    "header_then_blank_lines": "lat,lon,x,y\n\n\r\n\n",
    "header_only_ids": "id,lat,lon,x,y\n",
    "short_row": "lat,lon,x,y\n" + ROWS + "35.0,135.0,1.0\n",
    "long_row": "lat,lon,x,y\n" + ROWS + "35.0,135.0,1.0,2.0,3.0\n",
    "trailing_comma": "lat,lon,x,y\n" + ROWS.replace("\n", ",\n", 1),
    "short_row_in_an_unused_column": "lat,lon,x,y,beta\n35.0,135.0,0.5,1.25,9\n35.01,135.02,-1e-3,2.0\n",
    "short_and_long_rows_that_balance": "lat,lon,x,y,beta\n35.0,135.0,0.5,1.25,9,8\n35.01,135.02,-1e-3,2.0\n",
    "long_row_with_ids": 'id,lat,lon,x,y\n"a,b",35.0,135.0,0.5,1.25\nc,35.01,135.02,-1e-3,2.0,7\n',
    "underscore": "lat,lon,x,y\n" + ROWS + "35.0,135.0,3_4.8,1.0\n",
    "arabic_indic_digits": "lat,lon,x,y\n" + ROWS + "35.0,135.0,\u0661\u0662,1.0\n",
    "no_break_space": "lat,lon,x,y\n" + ROWS + "35.0,135.0,\xa01.5,1.0\n",
    "file_separator": "lat,lon,x,y\n" + ROWS + "35.0,135.0,\x1c1.5,1.0\n",
    "vertical_tab": "lat,lon,x,y\n" + ROWS + "35.0,135.0,\x0b1.5\x0c,1.0\n",
    "non_ascii_id": "id,lat,lon,x,y\nünï,35.0,135.0,0.5,1.25\n",
    "empty_cell": "lat,lon,x,y\n" + ROWS + "35.0,135.0,,1.0\n",
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_reads_as_the_row_loop_reads_it(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(FIXTURES[name].encode("utf-8"))
    assert_reads_as_reference(path)


@pytest.mark.parametrize("name, message", [
    ("whitespace_line", "row 1 has 1 fields, expected 4"),
    ("comment_row_after_header", "row 3: column lat is not numeric ('# a note')"),
    ("short_row_in_an_unused_column", "row 1 has 4 fields, expected 5"),
    ("short_and_long_rows_that_balance", "row 0 has 6 fields, expected 5"),
    ("long_row_with_ids", "row 1 has 6 fields, expected 5"),
    ("underscore", "row 3: column x is not numeric ('3_4.8')"),
    ("arabic_indic_digits", "row 3: column x is not numeric ('\u0661\u0662')"),
    ("no_break_space", "row 3: column x is not numeric ('\\xa01.5')"),
])
def test_fixture_errors_name_the_row_and_column(tmp_path, name, message):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(FIXTURES[name].encode("utf-8"))
    with pytest.raises(ConfigurationError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("name", ["lf", "crlf", "bom", "bom_crlf_comments", "blank_lines", "blank_lines_crlf",
                                  "quoted_ids", "quoted_ids_crlf", "id_last", "other_text_column",
                                  "header_only", "header_only_ids", "spaces_around_numbers"])
def test_common_files_take_numpys_reader(tmp_path, monkeypatch, name):
    # the row loop reads only a body numpy's reader defers
    path = tmp_path / f"{name}.csv"
    path.write_bytes(FIXTURES[name].encode("utf-8"))

    def not_called(*args):
        raise AssertionError("the row loop read the body")

    monkeypatch.setattr(cli, "_numeric_rows", not_called)
    read_dataset(path)


def test_reader_only_space_is_every_space_float_does_not_take():
    # the characters str.isspace() holds beyond the six ASCII ones float()
    # strips: numpy's reader strips them around a number
    spaces = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
    assert cli._READER_ONLY_SPACE == "".join(c for c in spaces if c not in " \t\n\v\f\r")


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
@pytest.mark.parametrize("offset", [300, 20_000])
def test_a_byte_that_is_not_utf8_is_named_by_its_offset_in_the_file(tmp_path, capsys, offset, bom):
    # a 0xff in place of a digit of a 4 800-row file, the byte order mark
    # (if any) counted in its offset
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--out", str(sim), "--n", "4800", "--seed", "1"]) == 0
    data = bytearray(bom + sim.read_bytes())
    while not chr(data[offset]).isdigit():
        offset += 1
    data[offset] = 0xFF
    sim.write_bytes(bytes(data))
    rc = main(["fit", "--input", str(sim), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read input file {sim}: ")
    assert f"can't decode byte 0xff in position {offset}:" in err
    assert not (tmp_path / "r.csv").exists()


def test_reading_a_4800_row_file_peaks_below_four_and_a_half_times_its_size(tmp_path):
    # the text, the body after the header, its lines and numpy's parse: 3.8
    # times the file's bytes; a StringIO of the whole text, read for the
    # header, held 4 bytes per character and took the peak to 5 times
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--out", str(sim), "--n", "4800", "--seed", "1"]) == 0
    read_dataset(sim)
    tracemalloc.start()
    try:
        read_dataset(sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * sim.stat().st_size


@pytest.mark.parametrize("cell", ["3_4.8", "\u0661\u0662", "1.5\u2003"])
def test_fit_rejects_a_cell_outside_the_number_syntax(tmp_path, capsys, cell):
    # exit 2 naming the row and the column, on a file the simulator wrote
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--out", str(sim), "--n", "300", "--seed", "1"]) == 0
    # the schema line ends in "\n", then the header and row 0 follow
    text = sim.read_bytes().decode("utf-8").split("\r\n")
    cells = text[49].split(",")
    cells[2] = cell
    text[49] = ",".join(cells)
    sim.write_bytes("\r\n".join(text).encode("utf-8"))
    rc = main(["fit", "--input", str(sim), "--out-records", str(tmp_path / "r.csv"),
               "--out-summary", str(tmp_path / "s.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {sim}: row 48: column x is not numeric ({cell!r})\n"
    assert not (tmp_path / "r.csv").exists()


# ---- cell texts: numpy's reader gives float()'s bits, or defers

def double(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


patterns = st.integers(0, 2**64 - 1).map(double)
digits = st.text("0123456789", min_size=1, max_size=25)
number_cells = st.one_of(
    patterns.map(repr),
    st.tuples(patterns, st.integers(0, 25)).map(lambda t: f"{t[0]:.{t[1]}e}"),
    st.tuples(patterns, st.integers(0, 25)).map(lambda t: f"{t[0]:.{t[1]}g}"),
    # 17-25 digit significands with a point anywhere and an exponent
    st.tuples(st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=17, max_size=25),
              st.integers(0, 25), st.sampled_from(["", "e", "E"]), st.integers(-340, 330))
    .map(lambda t: f"{t[0]}{t[1][:t[2]]}.{t[1][t[2]:]}" + (f"{t[3]}{t[4]}" if t[3] else "")),
    st.tuples(st.sampled_from(["", "+", "-"]), digits, st.sampled_from([".", ""]), st.sampled_from(["", "5"]))
    .map("".join),
    st.sampled_from([
        ".5", "5.", "-.5", "+5.", ".", "-", "+", "e5", "5e", "5e+", "5E-3", "1e309", "-1e400", "1e-400",
        "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
        "1.7976931348623157e308", "1.7976931348623159e308", "0", "-0", "+0.0", "00012", "1_0",
        "", " ", "\t", "nan", "NaN", "-nan", "+NAN", "inf", "-inf", "+Inf", "infinity", "-Infinity",
        "INFINITY", "infinit", "nan(1)", "in", "0x10", "1e5.5", "1..5", "--1", "+-1",
    ]),
)
junk = st.text("0123456789.eE+-_ \t\v\f\r\n\"',#\xa0\x1c\u2003\u0661naiftyNAIFTY", max_size=8)
spaced = st.tuples(st.sampled_from(["", " ", "\t", "\xa0", "\x1c", "\n"]), number_cells,
                   st.sampled_from(["", " ", "\t", "\u3000", "\x1f", "\r\n"])).map("".join)
cells = st.one_of(number_cells, junk, spaced)


@st.composite
def bodies(draw):
    """(body, with_ids): a body of rows (id, lat, lon, x, y), or (lat, lon,
    x, y) without ids, as the csv module writes them; the ids and the cells
    are quoted where they must be."""
    with_ids = draw(st.booleans())
    rows = [[draw(st.sampled_from(["p", "a,b", 'q"t', "two\nlines", ""]))] * with_ids
            + [draw(cells) for _ in REQUIRED] for _ in range(draw(st.integers(1, 4)))]
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    return buf.getvalue(), with_ids


@settings(max_examples=600, deadline=None)
@given(bodies())
@example(("35.0,135.0,3_4.8,1.0\n", False))
@example(("p,35.0,135.0,\xa01.5,1.0\n", True))
@example(("35.0,135.0,\x1c1.5,1.0\n", False))
@example(('35.0,135.0,"1.5\n",1.0\r\n', False))
def test_numpy_reader_gives_float_bits_or_defers(case):
    body, with_ids = case
    names = ("id",) * with_ids + REQUIRED
    col = {name: i for i, name in enumerate(names)}
    rows = list(filter(None, csv.reader(io.StringIO(body, newline=""))))
    try:
        got = cli._parse_columns(body, rows if with_ids else None, len(names), col)
    except ValueError:
        event("deferred to the row loop")
        return
    event("read by numpy")
    # accepted: every row has its cells, each in the number syntax, and the
    # reader's value is float()'s, bit for bit, as the row loop's is
    assert all(len(row) == len(names) for row in rows)
    loop = cli._numeric_rows("f", rows, len(names), col)
    for name in REQUIRED:
        texts = [row[col[name]] for row in rows]
        assert all("_" not in t and t.isascii() for t in texts), texts
        assert np.array_equal(bits(got[name]), bits([float(t) for t in texts])), (name, texts)
        assert np.array_equal(bits(got[name]), bits(loop[name])), name


def test_numpy_reader_takes_random_bit_patterns():
    # 20 000 cells of random doubles as repr and %.Ne text, subnormal and
    # overflowing magnitudes included: all read by numpy, as float() reads them
    rng = np.random.default_rng(80)
    values = rng.integers(0, 2**64, 5000, dtype=np.uint64).view(np.float64)
    values[:200] = rng.uniform(0, 5e-308, 200) * rng.choice([-1, 1], 200)
    texts = [repr(v) if i % 2 else f"{v:.{i % 26}e}" for i, v in enumerate(values.tolist())]
    texts[:4] = ["1e309", "-1e400", "2.4703282292062328e-324", "nan"]
    cells_ = np.array(texts, dtype=object).reshape(-1, 4)
    body = "".join(",".join(row) + "\n" for row in cells_)
    got = cli._parse_columns(body, None, 4, {name: i for i, name in enumerate(REQUIRED)})
    for i, name in enumerate(REQUIRED):
        expected = [float(t) for t in cells_[:, i]]
        assert np.array_equal(bits(got[name]), bits(expected)), name
    assert math.isinf(got["lat"][0]) and math.isnan(got["y"][0])


# ---- ids: as the csv module reads them, whatever the line ends

try:
    list(csv.reader(["a\x00,b"]))
    CSV_READS_NUL = True
except csv.Error:  # this interpreter's csv module rejects NUL
    CSV_READS_NUL = False

id_texts = st.one_of(
    st.text(st.characters(blacklist_characters='",\r\n', blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(["", "ünï", "日本", "a\x00", "\x00\x00", " p ", "#x", "a\tb", "\x0b\x0c\x1c ", "\x85"]),
).filter(lambda text: CSV_READS_NUL or "\x00" not in text)
# ids numpy's reader lets through: no character it strips around a number
reader_ids = id_texts.filter(lambda text: not any(char in text for char in cli._READER_ONLY_SPACE))
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def quote_free_bodies(draw):
    """(body, at): rows of five fields, the id at column at and numbers
    elsewhere, no field holding a quote; each line ends in "\\n", "\\r\\n" or
    "\\r" (the last may have none), with blank lines between rows."""
    at = draw(st.integers(0, 4))
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        parts.append("".join(draw(st.lists(line_ends, max_size=2))))
        row = [repr(draw(st.floats(-90.0, 90.0))) for _ in range(5)]
        row[at] = draw(reader_ids)
        parts.append(",".join(row) + draw(line_ends))
    if parts and draw(st.booleans()):
        parts[-1] = parts[-1].rstrip("\r\n")
    return "".join(parts), at


@settings(max_examples=200, deadline=None)
@given(quote_free_bodies())
def test_ids_are_the_csv_modules_ids(case):
    # blank lines, "\r", "\r\n", trailing NULs and non-ASCII ids included
    body, at = case
    header = ["lat", "lon", "x", "y"]
    header.insert(at, "id")
    rows = list(filter(None, csv.reader(io.StringIO(body, newline=""))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.csv"
        path.write_bytes((",".join(header) + "\n" + body).encode("utf-8"))
        ds = read_dataset(path)
    assert ds.ids.tolist() == [row[at] for row in rows]
