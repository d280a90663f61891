import io
import json
import math
import re
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dps import fileio
from dps.geom import LENGTH_EPSILON, ArcSegment, Heading, LineSegment, Point2, arc_endpoint
from dps.fileio import _BLOCK, load_path, load_polyline, load_scenario, save_path
from dps.randgen import random_polyline
from dps.render import render_svg
from dps.smoother import Polyline, SmoothPath, smooth_polyline

P = Point2


def test_load_polyline_with_header():
    src = io.StringIO("x,y\n0,0\n4,0\n4,4\n")
    polyline = load_polyline(src)
    assert polyline.points == (P(0, 0), P(4, 0), P(4, 4))


def test_load_polyline_without_header():
    src = io.StringIO("0.5,1.5\n2.0,-3.25\n")
    polyline = load_polyline(src)
    assert polyline.points == (P(0.5, 1.5), P(2.0, -3.25))


def test_load_polyline_errors():
    with pytest.raises(ValueError):
        load_polyline(io.StringIO("0,0\n"))  # too few points
    with pytest.raises(ValueError):
        load_polyline(io.StringIO("0,0\n1,2,3\n"))  # bad record
    with pytest.raises(ValueError):
        load_polyline(io.StringIO("0,0\nnope,nan\n"))  # bad number past header
    # a first line with a number in it is a record, not a header
    for text, record in (("1,abc\n0,0\n4,0\n4,4\n", "1,abc"), ("0,0x\n4,0\n4,4\n", "0,0x")):
        with pytest.raises(ValueError, match=f"^line 1: cannot parse {re.escape(repr(record))}$"):
            load_polyline(io.StringIO(text))
    # the number syntax: surrounding spaces, signs and exponents load; hex
    # and digit-group underscores, which float() alone would take, do not
    loaded = load_polyline(io.StringIO("x_m,y_m\n 1.5 , -2e3\n+3E-1,\t4\n-.5,+0\n"))
    assert loaded.xy.tolist() == [[1.5, -2000.0], [0.3, 4.0], [-0.5, 0.0]]
    for record in ("0x10,2", "1_0,2", "1,2_000.5"):
        with pytest.raises(ValueError, match=f"^line 2: cannot parse {re.escape(repr(record))}$"):
            load_polyline(io.StringIO(f"0,0\n{record}\n4,4\n"))
    for record, shown in (("inf,2", "inf, 2.0"), ("1,-Infinity", "1.0, -inf"), ("nan,2", "nan, 2.0")):
        message = f"line 2: non-finite coordinates ({shown})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_polyline(io.StringIO(f"0,0\n{record}\n4,4\n"))


def test_load_polyline_names_the_line_of_a_non_finite_coordinate():
    for text, message in (("x,y\n0,0\n1,nan\n", "line 3: non-finite coordinates (1.0, nan)"),
                          ("0,0\n\n-inf,2\n4,4\n", "line 3: non-finite coordinates (-inf, 2.0)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_polyline(io.StringIO(text))


# A UTF-8 byte order mark, as spreadsheet "CSV UTF-8" exports write, is skipped
# by each reader that opens a file by name.
BOM = "\ufeff".encode()


def test_load_polyline_skips_a_byte_order_mark(tmp_path):
    for text in ("0,0\n4,0\n4,4\n", "x,y\n0,0\n4,0\n4,4\n"):
        src = tmp_path / "in.csv"
        src.write_bytes(BOM + text.encode())
        assert load_polyline(str(src)).points == (P(0, 0), P(4, 0), P(4, 4))


def test_load_polyline_skips_a_byte_order_mark_in_a_stream():
    for text in ("\ufeff0,0\n4,0\n4,4\n", "\ufeffx,y\n0,0\n4,0\n4,4\n"):
        assert load_polyline(io.StringIO(text)).points == (P(0, 0), P(4, 0), P(4, 4))
    # only at the start of line 1
    with pytest.raises(ValueError, match=f"^line 2: cannot parse {re.escape(repr(chr(0xFEFF) + '4,0'))}$"):
        load_polyline(io.StringIO("0,0\n\ufeff4,0\n4,4\n"))


def _reference_polyline(text):
    """load_polyline's rules applied one line at a time, each field read by
    float(): the polyline's coordinate bytes, or the error's type and text."""
    def number(field):
        try:
            return float(field)
        except ValueError:
            return None

    values = []
    try:
        for lineno, line in enumerate(io.StringIO(text), start=1):
            line = line.removeprefix("\ufeff") if lineno == 1 else line
            fields = line.split(",")
            if len(fields) != 2:
                if line.strip():
                    raise ValueError(f"line {lineno}: expected 'x,y', got {line.strip()!r}")
                continue
            x, y = map(number, fields)
            if x is None or y is None or "_" in line:
                if lineno == 1 and x is None and y is None:
                    continue
                raise ValueError(f"line {lineno}: cannot parse {line.strip()!r}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"line {lineno}: non-finite coordinates ({x}, {y})")
            values += x, y
        return Polyline.from_array(np.array(values).reshape(-1, 2)).xy.tobytes()
    except ValueError as err:
        return type(err), str(err)


def _polyline_outcome(text):
    try:
        return load_polyline(io.StringIO(text)).xy.tobytes()
    except ValueError as err:
        return type(err), str(err)


# Records that the block parse must leave to the per-line reader, or read as
# float() does: integer tokens, overflow and underflow, spellings JSON
# refuses, whitespace JSON does not know, and malformed records. The other
# field is a float token, so that only the odd one can turn a block away.
_ODD_RECORDS = (
    "-0,1.5", "1.5,-0", "0,0.5", "9007199254740993,1.5", "1e400,1.5", "1.5,-1e400", "1e-400,1.5",
    "-1e-400,1.5", "1.5e-400,-0.0", "nan,1.5", "inf,1.5", "1.5,-Infinity", "+1,2.5", "1.,2.5",
    ".5,2.5", "1_0,2.5", "1.5,2_0.5", "0x10,2.5", " 1.5 , -2e3 ", "\t3.5,4.5\t\r", "\xa05.5,6.5",
    "\x0b7.5,8.5", "1.5,2.5,3.5", "1.5,2.5,", ",", "1.5", '"1.5","2.5"', "[1.5,2.5]", "1.5,abc", "",
)


@pytest.mark.parametrize("record", _ODD_RECORDS)
def test_load_polyline_matches_float_reference(record):
    rows = [f"{p.x!r},{p.y!r}" for p in random_polyline(3 * _BLOCK, 1.0, seed=11).points]
    for header in ("x,y\n", ""):
        # the record is line 1 (read alone) or the first line of the first
        # block, the line after it, or a line of the second block
        for at in (0, 1, _BLOCK + 300):
            text = header + "\n".join(rows[:at] + [record] + rows[at:]) + "\n"
            assert _polyline_outcome(text) == _reference_polyline(text)


def test_load_polyline_matches_float_reference_on_layouts():
    rows = [f"{p.x!r},{p.y!r}" for p in random_polyline(3 * _BLOCK, 1.0, seed=12).points]
    texts = [
        "x,y\n0,0\n4,0\n4,4\n", "0,0\n4,0\n4,4\n", "0,0\n4,0\n4,4",
        "\ufeffx,y\n0,0\n4,0\n", "\ufeff0,0\n4,0\n", "", "\n", "x,y\n", "x,y\n0,0\n",
        "x,y\r\n" + "\r\n".join(rows) + "\r\n",
        # blank lines: the last line of a block (line _BLOCK + 1) and the
        # first of the next, and at the end
        "x,y\n" + "\n".join(rows[:_BLOCK] + [""] + rows[_BLOCK:2 * _BLOCK] + [" "] + rows[2 * _BLOCK:]) + "\n\n",
        "\n".join(rows[:_BLOCK] + [""] + rows[_BLOCK:]) + "\n",
        # a bad line after the first block
        "x,y\n" + "\n".join(rows[:2000] + ["1,2,3"] + rows[2000:]) + "\n",
        # a line short of a comma beside one with a comma too many
        "x,y\n" + "\n".join(rows[:5] + ["1.5", "2.5,3.5,4.5"] + rows[5:]) + "\n",
        "\n".join(rows[:5] + ["2.5,3.5,4.5", "1.5"] + rows[5:]) + "\n",
        # a repeated point, which the polyline refuses
        "\n".join(rows[:1500] + rows[1499:]) + "\n",
    ]
    for text in texts:
        assert _polyline_outcome(text) == _reference_polyline(text)


def _decimal(sign, digits, point, exponent):
    """A decimal number with a nonzero leading digit and a point after
    ``point`` digits, as JSON spells a float, and an exponent if one is
    given."""
    return f"{sign}{digits[:point]}.{digits[point:] or '0'}" + ("" if exponent is None else f"e{exponent}")


_SIGNS = st.sampled_from(("", "-"))
_DIGITS = st.tuples(st.text("123456789", min_size=1, max_size=1), st.text("0123456789", max_size=24)).map("".join)
_DECIMALS = st.builds(_decimal, _SIGNS, _DIGITS, st.integers(1, 25), st.one_of(st.none(), st.integers(-330, 330)))
# JSON integers up to 25 digits, "0" and "-0" among them
_INTEGERS = st.tuples(_SIGNS, st.one_of(st.just("0"), _DIGITS)).map("".join)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(*2 * [st.one_of(_DECIMALS, _INTEGERS)]), min_size=2, max_size=4))
def test_load_polyline_reads_numbers_as_float_does(pairs):
    lines = [f"{x},{y}\n" for x, y in pairs]
    text = "x,y\n" + "".join(lines)
    assert _polyline_outcome(text) == _reference_polyline(text)
    # orjson, not the per-line reader, parsed them wherever float() gives
    # finite values, a -0 token too (orjson reads it as the integer 0, so the
    # block is parsed again with -0.0 for it)
    tokens = [v for pair in pairs for v in pair]
    expected = all(math.isfinite(float(v)) for v in tokens)
    values = array("d")
    assert fileio._read_block(lines, values) == expected
    if expected and "-0" in tokens:  # each value keeps the sign bit float() gives it
        assert [math.copysign(1.0, v) for v in values] == [math.copysign(1.0, float(v)) for v in tokens]


def test_read_block_reads_a_minus_zero_token_with_its_sign():
    # an integer 0 beside a "-0." spelling, or an exponent of -0, is no -0 token
    for lines in (["0,-0.25\n", "1,2\n"], ["0,1e-0\n"], ["-0.0,0\n"], ["-0e1,0"]):
        assert fileio._read_block(lines, array("d"))
        text = "".join(lines)
        assert _polyline_outcome(text) == _reference_polyline(text)
    # a -0 token is read again as -0.0: the same bits as float(), sign bit included
    for lines in (["0,-0\n"], ["1.5,2\n", "-0,1\n"], ["1, -0 "], ["1,-0"], ["-0,-0\n", "-0,0.5\n"]):
        values = array("d")
        assert fileio._read_block(lines, values)
        reference = [float(field) for line in lines for field in line.split(",")]
        assert values.tobytes() == array("d", reference).tobytes()
        assert [math.copysign(1.0, v) for v in values] == [math.copysign(1.0, v) for v in reference]
        text = "".join(lines)
        assert _polyline_outcome(text) == _reference_polyline(text)


def test_load_scenario_skips_a_byte_order_mark(tmp_path):
    doc = {"bounds": [0, 0, 20, 20], "robot_radius": 0.2, "turning_radius": 0.5,
           "start": [1, 1], "goal": [19, 19], "obstacles": [[[8, 8], [12, 8], [12, 12], [8, 12]]]}
    src = tmp_path / "scenario.json"
    src.write_bytes(BOM + json.dumps(doc).encode())
    assert load_scenario(str(src)) == load_scenario(io.StringIO(json.dumps(doc)))


def test_load_path_skips_a_byte_order_mark(tmp_path):
    path = smooth_polyline(random_polyline(10, 1.0, seed=3), 1.0)
    src = tmp_path / "path.json"
    save_path(path, str(src), total_length=1.5)
    src.write_bytes(BOM + src.read_bytes())
    assert load_path(str(src)) == (path, {"total_length": 1.5})


def test_path_round_trip_exact(tmp_path):
    polyline = random_polyline(30, 1.0, seed=12)
    path = smooth_polyline(polyline, 1.0)
    out = tmp_path / "path.json"
    save_path(path, str(out), total_length=1.25)
    loaded, meta = load_path(str(out))
    assert loaded == path  # bit-exact floats via repr round-trip
    assert meta["total_length"] == 1.25


def test_path_round_trip_awkward_floats():
    from dps.smoother import SmoothPath
    from dps.geom import arc_endpoint

    seg = LineSegment(P(0.1 + 0.2, -1e-17 + 1), P(math.pi, math.e))
    arc = ArcSegment(P(1 / 3, 2 / 3), 0.1234567890123456789, Heading(2.9999999999999996), -1e-3)
    path_in = SmoothPath((seg, arc), seg.a, arc_endpoint(arc, True)[0])
    buf = io.StringIO()
    save_path(path_in, buf, total_length=None, min_clearance=0.5)
    buf.seek(0)
    loaded, meta = load_path(buf)
    assert loaded.segments == path_in.segments
    assert meta == {"min_clearance": 0.5}


def _float_bits(path):
    """Every float of every segment, as hex, so -0.0 and 0.0 differ."""
    out = []
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            values = (seg.a.x, seg.a.y, seg.b.x, seg.b.y)
        else:
            values = (seg.center.x, seg.center.y, seg.radius, seg.start_angle.theta, seg.sweep)
        out.append(tuple(float(v).hex() for v in values))
    return out


def _indented_document(path, **meta):
    """The document that the indented json.dump writer of earlier versions
    produced for a path."""
    segments = [
        {"type": "line", "a": [s.a.x, s.a.y], "b": [s.b.x, s.b.y]}
        if isinstance(s, LineSegment)
        else {"type": "arc", "center": [s.center.x, s.center.y], "radius": s.radius,
              "start_angle": s.start_angle.theta, "sweep": s.sweep}
        for s in path.segments
    ]
    return {"segments": segments, **{k: v for k, v in meta.items() if v is not None}}


def _edge_float_path():
    from dps.smoother import SmoothPath
    from dps.geom import arc_endpoint

    line = LineSegment(P(-0.0, 5e-324), P(0.1 + 0.2, 2.2250738585072014e-308))
    arc = ArcSegment(P(1 / 3, -0.0), 0.30000000000000004, Heading(-0.0), 2.9999999999999996)
    sliver = ArcSegment(P(-1e-320, 7.0), 1.7976931348623157e3, Heading(-2.220446049250313e-16), -5e-324)
    return SmoothPath((line, arc, sliver), line.a, arc_endpoint(sliver, True)[0])


def test_path_round_trip_keeps_every_bit():
    # -0.0, subnormals and 17-digit floats come back with the same bits
    path_in = _edge_float_path()
    buf = io.StringIO()
    save_path(path_in, buf, total_length=0.1 + 0.2)
    loaded, meta = load_path(io.StringIO(buf.getvalue()))
    assert _float_bits(loaded) == _float_bits(path_in)
    assert meta["total_length"].hex() == (0.1 + 0.2).hex()
    # integers load as their float spelling, bit for bit, and -0 as -0.0
    ints = ('{"segments": [{"type": "line", "a": [3, 0], "b": [-0, 7]},\n'
            '{"type": "arc", "center": [1, -0], "radius": 2, "start_angle": -0, "sweep": -3}]}')
    as_ints, as_floats = (load_path(io.StringIO(text))[0]
                          for text in (ints, re.sub(r"(-?\d+)", r"\1.0", ints)))
    assert _float_bits(as_ints) == _float_bits(as_floats)
    assert _float_bits(as_ints)[0][2] == (-0.0).hex()


def test_path_file_has_one_segment_record_per_line(tmp_path):
    path = smooth_polyline(random_polyline(12, 1.0, seed=3), 1.0)
    out = tmp_path / "path.json"
    with open(out, "w", encoding="utf-8") as fh:  # caller-owned text stream
        save_path(path, fh, total_length=2.5, min_clearance=math.inf)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"segments": ['
    records = [json.loads(line.rstrip(",")) for line in lines[1:1 + len(path.segments)]]
    assert records == _indented_document(path)["segments"]
    assert lines[1 + len(path.segments):] == ["],", '"total_length": 2.5,', '"min_clearance": Infinity}']
    loaded, meta = load_path(str(out))
    assert loaded == path
    assert meta == {"total_length": 2.5, "min_clearance": math.inf}


def test_path_document_matches_indented_writer():
    for path, meta in (
        (smooth_polyline(random_polyline(40, 1.0, seed=8), 1.0), {"total_length": 1.5}),
        (_edge_float_path(), {"total_length": None, "min_clearance": math.inf}),
        (_edge_float_path(), {}),
    ):
        buf = io.StringIO()
        save_path(path, buf, **meta)
        doc = json.loads(buf.getvalue())
        expected = _indented_document(path, **meta)
        assert doc == expected and list(doc) == list(expected)
        # files in the indented layout still load, to the same path
        old_file = io.StringIO(json.dumps(expected, indent=2) + "\n")
        loaded, old_meta = load_path(old_file)
        assert _float_bits(loaded) == _float_bits(path)
        assert old_meta == {k: v for k, v in meta.items() if v is not None}


class _Unseekable(io.StringIO):
    """A text stream that cannot seek, as a pipe."""

    def seekable(self):
        return False


def _outcome(source):
    """What load_path gives for a source: the path's column bytes, its ends
    and the metadata, or the error's type and text."""
    try:
        path, meta = load_path(source)
    except ValueError as err:
        return type(err), str(err)
    return path.kind.tobytes(), path.data.tobytes(), path.start_point, path.end_point, meta


def _writer_lines(segments, **meta):
    """save_path's text for a smoothed random path of ``segments`` rows, as
    lines: the header, one record per line, then "]" and the metadata."""
    path = smooth_polyline(random_polyline(1200, 1.0, seed=4), 1.0)
    buf = io.StringIO()
    save_path(SmoothPath(path.segments[:segments], path.start_point, path.end_point), buf, **meta)
    return buf.getvalue().splitlines(keepends=True)


# Lines replaced in a file of 2,397 records, by index: a record in the second
# block, so that an error names a global index, the last line of the first
# block, the last record or the last line of metadata; None cuts the file.
_AT = _BLOCK + 5
_LINE_REC = '{"type": "line", "a": [%s, %s], "b": [%s, %s]},\n'
_ARC_REC = '{"type": "arc", "center": [%s, %s], "radius": %s, "start_angle": %s, "sweep": %s},\n'
_EDITS = {
    "int": (1 + _AT, _LINE_REC % (3, 0, -4, 7)),
    "minus zero": (1 + _AT, _ARC_REC % (1.5, "-0", 2, "-0", -0.5)),
    "beyond u64": (1 + _AT, _LINE_REC % (18446744073709551617, 0.0, 1.0, 0.0)),
    "1e400": (1 + _AT, _ARC_REC % (1.5, 0.5, "1e400", 0.5, 1.0)),
    "5,000 digits": (1 + _AT, _LINE_REC % ("7" * 5000, 0.0, 1.0, 0.0)),
    "null": (1 + _AT, _ARC_REC % (1.5, 0.5, 1.0, 0.5, "null")),
    "NaN": (1 + _AT, _LINE_REC % ("NaN", 0.0, 1.0, 0.0)),
    "string": (1 + _AT, _LINE_REC % ('"3.0"', 0.0, 1.0, 0.0)),
    "unknown type": (1 + _AT, '{"type": "spline"},\n'),
    "zero radius": (1 + _AT, _ARC_REC % (1.5, 0.5, 0.0, 0.5, 1.0)),
    "blank line": (1 + _AT, _LINE_REC % (3.0, 0.0, 4.0, 0.0) + "\n"),
    "split record": (1 + _AT, (_LINE_REC % (3.0, 0.0, 4.0, 0.0)).replace(' "b"', '\n"b"')),
    "split across blocks": (_BLOCK, (_LINE_REC % (3.0, 0.0, 4.0, 0.0)).replace(' "b"', '\n"b"')),
    "missing comma": (_BLOCK, (_LINE_REC % (3.0, 0.0, 4.0, 0.0)).replace("},", "}")),
    "trailing comma": (2397, _LINE_REC % (3.0, 0.0, 4.0, 0.0)),
    "segments in metadata": (-1, '"min_clearance": Infinity, "segments": [{"type": "spline"}]}\n'),
    "escaped segments in metadata": (-1, '"min_clearance": Infinity, "\\u0073egments": [{"type": "spline"}]}\n'),
    "no closing bracket": (1 + 2397, None),  # the file ends after the last record
    "broken later": (1 + 5, _ARC_REC % (1.5, 0.5, 0.0, 0.5, 1.0)),
}


@pytest.mark.parametrize("edit", list(_EDITS))
def test_load_path_matches_json_reference(edit):
    """The block reader gives the path bytes, metadata and error text that
    json.load(..., parse_int=float) of the whole document gives through the
    same checks, as it does for a stream that cannot seek."""
    lines = _writer_lines(2397, total_length=2.5, min_clearance=math.inf)
    at, record = _EDITS[edit]
    if record is None:
        del lines[at:]
    else:
        lines[at] = record
    if edit == "broken later":  # a bad record in block 1, broken JSON in block 3
        lines[1 + 2 * _BLOCK + 9] = lines[1 + 2 * _BLOCK + 9][:-3] + "\n"
    text = "".join(lines)
    got, reference = _outcome(io.StringIO(text)), _outcome(_Unseekable(text))
    assert got == reference
    # orjson reads an integer token as an int (-0 as 0), so that block is read whole by
    # json; an integer beyond u64 it reads as the float json gives
    blockwise = fileio._read_blocks(io.StringIO(text)) is not None
    assert blockwise == (edit in ("beyond u64", "blank line", "split record"))
    if blockwise or edit in ("int", "minus zero", "beyond u64", "split across blocks"):
        assert len(got[0]) == 2397 and got[4] == {"total_length": 2.5, "min_clearance": math.inf}
    elif edit in ("missing comma", "trailing comma", "no closing bracket", "broken later"):
        assert got[0] is json.JSONDecodeError
    else:
        index = 0 if edit.endswith("segments in metadata") else _AT
        assert got[0] is ValueError and got[1].startswith(f"segment {index}: ")
    if edit == "minus zero":  # -0 reads as -0.0, not as orjson's integer 0
        row = np.frombuffer(got[1]).reshape(-1, 5)[_AT]
        assert row.tolist() == [1.5, 0.0, 2.0, 0.0, -0.5] and np.signbit(row).tolist()[:4] == [0, 1, 0, 1]


@pytest.mark.parametrize("segments", [_BLOCK, _BLOCK + 1, 2397])
def test_load_path_reads_blocks_of_every_fill(segments, tmp_path):
    """Exactly one block, one record past it, and a partial last block: a
    file by name, with and without a byte order mark, and a stream that
    cannot seek all read as the json reference does."""
    text = "".join(_writer_lines(segments, total_length=1.25, min_clearance=math.inf))
    reference = _outcome(_Unseekable(text))
    assert len(reference[0]) == segments and reference[4] == {"total_length": 1.25, "min_clearance": math.inf}
    assert fileio._read_blocks(io.StringIO(text)) is not None
    src = tmp_path / "path.json"
    for prefix in (b"", BOM):
        src.write_bytes(prefix + text.encode())
        assert _outcome(str(src)) == reference
    # the stream is read from where it stands, and a BOM inside it is an error, as for json.load
    stream = io.StringIO("ignored" + text)
    stream.seek(len("ignored"))
    assert _outcome(stream) == reference
    assert _outcome(io.StringIO("\ufeff" + text)) == _outcome(_Unseekable("\ufeff" + text))
    assert _outcome(io.StringIO("\ufeff" + text))[0] is json.JSONDecodeError


def test_path_with_numpy_coordinates_is_valid_json():
    np = pytest.importorskip("numpy")
    from dps.smoother import Polyline

    polyline = Polyline([P(np.float64(x), np.float64(y)) for x, y in ((0, 0), (4, 0), (4, 4))])
    path = smooth_polyline(polyline, 1.0)
    buf = io.StringIO()
    save_path(path, buf, total_length=np.float64(7.5))
    assert json.loads(buf.getvalue()) == _indented_document(path, total_length=7.5)


def test_load_path_rejects_empty():
    with pytest.raises(ValueError):
        load_path(io.StringIO(json.dumps({"segments": []})))
    with pytest.raises(ValueError):
        load_path(io.StringIO(json.dumps({"segments": [{"type": "blob"}]})))


_GOOD_LINE = {"type": "line", "a": [0.0, 0.0], "b": [1.0, 0.0]}
_GOOD_ARC = {"type": "arc", "center": [1.0, 1.0], "radius": 1.0, "start_angle": -1.5, "sweep": 1.0}
# Stands for an integer too long for json.dumps, which the test writes in its place.
_DIGITS_5000 = "<a 5,000-digit integer>"


@pytest.mark.parametrize("record, reason", [
    ({**_GOOD_ARC, "radius": 1e999}, "non-finite"),
    ({**_GOOD_LINE, "b": [float("nan"), 0.0]}, "non-finite"),
    ({**_GOOD_ARC, "radius": 0.0}, "radius must be positive"),
    ({**_GOOD_ARC, "radius": -2.0}, "radius must be positive"),
    ({**_GOOD_ARC, "sweep": -7.0}, "sweep must lie in"),
    ({**_GOOD_LINE, "b": [0.0, 1e-10]}, "endpoints coincide"),
    ({**_GOOD_LINE, "a": [0.0, 0.0, 0.0]}, "expected \\[x, y\\]"),
    ({**_GOOD_LINE, "a": "01"}, "expected \\[x, y\\]"),
    ({**_GOOD_ARC, "center": {"x": 1.0, "y": 1.0}}, "expected \\[x, y\\]"),
    ({**_GOOD_ARC, "radius": [1.0]}, "expected \\[x, y\\]"),
    ({**_GOOD_LINE, "b": ["x", 0.0]}, "expected \\[x, y\\]"),
    ({**_GOOD_ARC, "sweep": None}, "non-finite"),
    ({"type": "spline"}, "unknown type 'spline'"),
    ({"type": "arc", "center": [1.0, 1.0]}, "missing key 'radius'"),
    ({**_GOOD_LINE, "a": ["0", 0.0]}, "expected \\[x, y\\] pairs of numbers"),
    ({**_GOOD_LINE, "b": [3.0, True]}, "expected \\[x, y\\] pairs of numbers"),
    ({**_GOOD_ARC, "radius": "1"}, "expected \\[x, y\\] center and numbers"),
    ({**_GOOD_ARC, "sweep": True}, "expected \\[x, y\\] center and numbers"),
    ({**_GOOD_LINE, "b": [10 ** 400, 0.0]}, "non-finite"),
    ({**_GOOD_LINE, "b": [_DIGITS_5000, 0.0]}, "non-finite value"),
    ({**_GOOD_ARC, "sweep": -math.inf}, "non-finite value"),
    ({"type": "line", "a": [3, 0], "b": [3, 0]},  # the record as read, numbers as floats
     re.escape("line endpoints coincide: {'type': 'line', 'a': [3.0, 0.0], 'b': [3.0, 0.0]}")),
    ({**_GOOD_LINE, "a": [0.0, -1e308], "b": [1.0, 1e308]}, "line length overflows a float"),
    ({**_GOOD_ARC, "center": [1e308, 0.0], "radius": 1e308}, re.escape("arc box (center +- radius) overflows")),
])
def test_load_path_names_the_bad_segment(record, reason):
    good = [_GOOD_LINE, _GOOD_ARC, {**_GOOD_LINE, "a": [2.0, 2.0]}]
    # the bad record is segment 2 and a later one is bad too
    doc = {"segments": [*good[:2], record, good[2], record]}
    with pytest.raises(ValueError, match=rf"^segment 2: .*{reason}"):
        load_path(io.StringIO(json.dumps(doc).replace(json.dumps(_DIGITS_5000), "7" * 5000)))
    loaded, _ = load_path(io.StringIO(json.dumps({"segments": good})))
    assert len(loaded.segments) == 3


def test_smooth_path_refuses_what_load_path_refuses():
    """A line whose length, or an arc whose box (center +- radius),
    overflows a float, from finite values: ``SmoothPath(segments)`` and
    ``load_path`` name the segment and the rule, without a numpy warning."""
    first = LineSegment(P(0, 0), P(1, 0))
    for segment, record, rule in (
        (LineSegment(P(0, -1e308), P(1, 1e308)), {**_GOOD_LINE, "a": [0.0, -1e308], "b": [1.0, 1e308]},
         "line length overflows a float"),
        (ArcSegment(P(1e308, 0), 1e308, Heading(0.0), 1.0),
         {**_GOOD_ARC, "center": [1e308, 0.0], "radius": 1e308}, "arc box (center +- radius) overflows a float"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^segment 1: {re.escape(rule)}$"):
                SmoothPath((first, segment), first.a, P(1, 1e308))
            with pytest.raises(ValueError, match=rf"^segment 1: {re.escape(rule)}: "):
                load_path(io.StringIO(json.dumps({"segments": [_GOOD_LINE, record]})))


def test_render_refuses_an_extent_that_overflows():
    # each line loads, but together they span 2e308, and so does the SVG box
    lines = [{"type": "line", "a": [0.0, -1e308], "b": [0.0, 0.0]},
             {"type": "line", "a": [0.0, 0.0], "b": [0.0, 1e308]}]
    path, _ = load_path(io.StringIO(json.dumps({"segments": lines})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^path extent overflows a float$"):
            render_svg(path)


def test_load_path_normalizes_start_angles_like_heading():
    angles = [1.5 * math.pi, -math.pi, math.pi, -1.5 * math.pi, 7.0, -0.0, 2.0]
    records = [{**_GOOD_ARC, "start_angle": a} for a in angles]
    loaded, _ = load_path(io.StringIO(json.dumps({"segments": records})))
    assert [arc.start_angle for arc in loaded.segments] == [Heading(a) for a in angles]
    assert loaded.data[:, 3].tolist() == [Heading(a).theta for a in angles]
    assert loaded.start_point == arc_endpoint(loaded.segments[0], False)[0]
    assert loaded.end_point == arc_endpoint(loaded.segments[-1], True)[0]


def _reference_file(path, **meta):
    """save_path's output written from segment objects."""
    records = [
        '{"type": "line", "a": [%r, %r], "b": [%r, %r]}' % (s.a.x, s.a.y, s.b.x, s.b.y)
        if isinstance(s, LineSegment)
        else '{"type": "arc", "center": [%r, %r], "radius": %r, "start_angle": %r, "sweep": %r}'
        % (s.center.x, s.center.y, s.radius, s.start_angle.theta, s.sweep)
        for s in path.segments
    ]
    tail = "".join(f',\n"{k}": {json.dumps(v)}' for k, v in meta.items())
    return '{"segments": [\n' + ",\n".join(records) + "\n]" + tail + "}\n"


def _reference_svg(path, width=800):
    """render_svg's output for a lone path, drawn from segment objects."""
    fmt = "{:.10g}".format
    lo, hi = [math.inf, math.inf], [-math.inf, -math.inf]
    for s in path.segments:
        if isinstance(s, LineSegment):
            boxes = [(s.a.x, s.a.y, 0.0), (s.b.x, s.b.y, 0.0)]
        else:
            boxes = [(s.center.x, s.center.y, s.radius)]
        for x, y, m in boxes:
            lo = [min(lo[0], x - m), min(lo[1], y - m)]
            hi = [max(hi[0], x + m), max(hi[1], y + m)]
    pad = 0.05 * max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
    xmin, ymin, xmax, ymax = lo[0] - pad, lo[1] - pad, hi[0] + pad, hi[1] + pad
    w, h = xmax - xmin, ymax - ymin
    first = path.segments[0]
    cursor = first.a if isinstance(first, LineSegment) else arc_endpoint(first, False)[0]
    d = [f"M {fmt(cursor.x)} {fmt(cursor.y)}"]
    for s in path.segments:
        if isinstance(s, LineSegment):
            d.append(f"L {fmt(s.b.x)} {fmt(s.b.y)}")
            continue
        start, sweep = s.start_angle.theta, s.sweep
        halves = [(start, sweep)] if abs(sweep) < 2 * math.pi - 1e-9 else [
            (start, 0.5 * sweep), (start + 0.5 * sweep, 0.5 * sweep)]
        d.append(" ".join(
            f"A {fmt(s.radius)} {fmt(s.radius)} 0 {int(abs(ds) > math.pi)} {int(ds > 0)} "
            f"{fmt(s.center.x + s.radius * math.cos(a0 + ds))} "
            f"{fmt(s.center.y + s.radius * math.sin(a0 + ds))}"
            for a0, ds in halves))
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{int(round(width * h / w))}" '
        f'viewBox="{fmt(xmin)} {fmt(ymin)} {fmt(w)} {fmt(h)}">',
        f'<g transform="matrix(1 0 0 -1 0 {fmt(ymin + ymax)})">',
        f'<path d="{" ".join(d)}" fill="none" stroke="#d03030" '
        f'stroke-width="{fmt(0.004 * max(w, h))}"/>',
        "</g>",
        "</svg>",
    ]) + "\n"


def _full_circle_path():
    circle = ArcSegment(P(1.0, 2.0), 0.75, Heading(0.3), 2 * math.pi)
    back = ArcSegment(P(-4.0, 2.5), 2.0, Heading(-math.pi), -2 * math.pi)
    line = LineSegment(arc_endpoint(circle, True)[0], P(5.0, 5.0))
    return SmoothPath((circle, line, back), arc_endpoint(circle, False)[0], arc_endpoint(back, True)[0])


def _render_edge_path():
    """Arcs at the SVG writer's edges: sweeps of exactly +-pi (a half circle
    with the large-arc flag clear) and one ulp past, sweeps on both sides of
    where a circle counts as full, signed zero sweeps and start angles, and
    full circles at rows 1,023 and 1,024, whose halves straddle a block
    boundary."""
    pi_up = math.nextafter(math.pi, 4)
    full = 2 * math.pi - 1e-9
    sweeps = [math.pi, -math.pi, pi_up, -pi_up, full, -math.nextafter(full, 0), -2 * math.pi, 0.25, 0.0, -0.0]
    segments = []
    for i in range(_BLOCK + 40):
        circle = i in (_BLOCK - 1, _BLOCK)
        sweep = (2 * math.pi if i % 2 else -2 * math.pi) if circle else sweeps[i % len(sweeps)]
        start = -0.0 if i % 3 == 0 else -math.pi / 3
        if i % 7 == 6 and not circle:
            segments.append(LineSegment(P(i, -0.0), P(i + 0.5, 1.0)))
        else:
            segments.append(ArcSegment(P(i * 0.5, -0.0), 0.25 + (i % 7), Heading(start), sweep))
    return SmoothPath(segments, arc_endpoint(segments[0], False)[0], P(0.0, 0.0))


def test_file_and_svg_match_segment_reference():
    paths = [smooth_polyline(random_polyline(n, 1.0, seed=n), 1.0) for n in (2, 3, 50, 400, 1500)]
    for path in (*paths, _full_circle_path(), _edge_float_path(), _render_edge_path()):
        buf = io.StringIO()
        save_path(path, buf, total_length=2.5)
        assert buf.getvalue() == _reference_file(path, total_length=2.5)
        assert render_svg(path) == _reference_svg(path)
        loaded, _ = load_path(io.StringIO(buf.getvalue()))
        assert loaded.segments == path.segments
    assert render_svg(_full_circle_path()).count(" A ") == 4  # full circles in halves


def _signed(magnitudes):
    return st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


# Magnitudes on both sides of where orjson's notation leaves repr's: 1e-4 and
# 1e16, subnormals, and zero (signed, so -0.0 too).
_SMALL = st.one_of(st.just(0.0), st.floats(5e-324, 2.2250738585072014e-308),
                   st.floats(1e-5, 1e-4, exclude_max=True), st.floats(1e-4, 1e-3))
_LARGE = st.one_of(st.floats(1e15, 1e16, exclude_max=True), st.floats(1e16, 1e300))
_COORD = _signed(st.one_of(_SMALL, _LARGE))
_ANGLE = _signed(_SMALL)
_LINES = st.tuples(_COORD, _COORD, _COORD, _COORD).filter(
    lambda v: math.hypot(v[2] - v[0], v[3] - v[1]) > LENGTH_EPSILON
).map(lambda v: LineSegment(P(v[0], v[1]), P(v[2], v[3])))
_ARCS = st.builds(lambda x, y, radius, start, sweep: ArcSegment(P(x, y), radius, Heading(start), sweep),
                  _COORD, _COORD, st.one_of(_SMALL, _LARGE).filter(bool), _ANGLE, _ANGLE)


@settings(deadline=None)
@given(st.lists(st.one_of(_LINES, _ARCS), min_size=1, max_size=6), _ARCS, _COORD)
def test_file_text_matches_repr_reference_at_notation_edges(rows, last, total_length):
    # The first block ends in an arc, so its last token is a sweep; every
    # value the file prints is drawn from the notation edges.
    segments = [rows[i % len(rows)] for i in range(_BLOCK - 1)] + [last] + rows
    path = SmoothPath(segments, P(0.0, 0.0), P(0.0, 0.0))
    buf = io.StringIO()
    save_path(path, buf, total_length=total_length)
    # as lines, so that a failure names the first differing record at once
    assert buf.getvalue().split("\n") == _reference_file(path, total_length=total_length).split("\n")


def test_file_functions_take_a_path_object(tmp_path):
    csv, scenario, out = tmp_path / "in.csv", tmp_path / "scenario.json", tmp_path / "path.json"
    csv.write_text("x,y\n0,0\n4,0\n4,4\n", encoding="utf-8")
    polyline = load_polyline(csv)
    assert polyline.points == (P(0, 0), P(4, 0), P(4, 4))
    path = smooth_polyline(polyline, 1.0)
    save_path(path, out, total_length=2.5)
    assert out.read_text(encoding="utf-8") == _reference_file(path, total_length=2.5)
    assert load_path(out) == (path, {"total_length": 2.5})
    doc = {"bounds": [0, 0, 20, 20], "robot_radius": 0.2, "turning_radius": 0.5,
           "start": [1, 1], "goal": [19, 19], "obstacles": [[[8, 8], [12, 8], [12, 12], [8, 12]]]}
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert load_scenario(scenario) == load_scenario(io.StringIO(json.dumps(doc)))


def test_load_scenario():
    doc = {
        "bounds": [0, 0, 20, 20],
        "robot_radius": 0.2,
        "turning_radius": 0.5,
        "start": [1, 1],
        "goal": [19, 19],
        "obstacles": [[[8, 8], [12, 8], [12, 12], [8, 12]]],
    }
    scenario = load_scenario(io.StringIO(json.dumps(doc)))
    assert scenario.robot_radius == 0.2
    assert len(scenario.obstacles) == 1
    assert len(scenario.obstacles[0].vertices) == 4


def test_load_scenario_hulls_nonconvex():
    doc = {
        "bounds": [0, 0, 20, 20],
        "robot_radius": 0.2,
        "turning_radius": 0.5,
        "start": [1, 1],
        "goal": [19, 19],
        # star-ish vertex order with an interior point
        "obstacles": [[[8, 8], [10, 9], [12, 8], [12, 12], [8, 12]]],
    }
    scenario = load_scenario(io.StringIO(json.dumps(doc)))
    assert len(scenario.obstacles[0].vertices) == 4


@pytest.mark.parametrize("points, vertices", [
    ([[-790.9511861086222, 701.8257883916505], [-734.6261100131496, 637.2502669314947],
      [-797.4572447532216, 709.284848525244]], None),
    ([[-986.2658119715123, -961.0753131803352], [-903.7692125017576, -909.6441153820232],
      [-963.2938872979651, -946.7538307278822], [-848.2011792975195, -875.001105544531],
      [-1024.01137476268, -984.6071862319751]], 4),
    ([[-536.998903841271, 7.452128380858767], [-521.746203533285, 15.079251297531195],
      [-519.5431194469556, 16.180904957729382], [-538.2101161610229, 6.846460856131992]], 3),
])
def test_load_scenario_hulls_near_collinear_obstacles(points, vertices):
    """Nearly collinear obstacles load as a polygon whose every vertex turns
    left, or are refused as collinear; none fails the convexity check."""
    doc = {"bounds": [-1100, -1100, 1100, 1100], "robot_radius": 0.2, "turning_radius": 0.5,
           "start": [1000, 1000], "goal": [1050, 1050], "obstacles": [points]}
    if vertices is None:
        with pytest.raises(ValueError,
                           match="^obstacle 0: points are collinear; no polygon hull exists$"):
            load_scenario(io.StringIO(json.dumps(doc)))
    else:
        assert len(load_scenario(io.StringIO(json.dumps(doc))).obstacles[0].vertices) == vertices


@pytest.mark.parametrize("key, value, name", [
    ("robot_radius", "0.2", "robot_radius"),
    ("turning_radius", True, "turning_radius"),
    ("bounds", ["0", "0", "20", "20"], "bounds"),
    ("start", ["1", "1"], "start"),
    ("goal", [19, False], "goal"),
    ("obstacles", [[[8, 8], [12, 8], [12, 12], [8, 12]], [[1, 1], ["2", 1], [2, 2]]], "obstacle 1"),
])
def test_load_scenario_takes_only_json_numbers(key, value, name):
    doc = {"bounds": [0, 0, 20, 20], "robot_radius": 0.2, "turning_radius": 0.5,
           "start": [1, 1], "goal": [19, 19], "obstacles": [], key: value}
    with pytest.raises(ValueError, match=f"^{name}: expected a number, got "):
        load_scenario(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("key, value, message", [
    ("bounds", [0, 0, 20], r"^bounds must be \[xmin, ymin, xmax, ymax\]$"),
    ("start", [1, 1, 1], r"^start: expected \[x, y\], got \[1\.0, 1\.0, 1\.0\]$"),
    ("obstacles", [[[8, 8], [12, 8, 0], [12, 12]]],
     r"^obstacle 0: expected \[x, y\], got \[12\.0, 8\.0, 0\.0\]$"),
])
def test_load_scenario_refuses_a_wrong_count_of_numbers(key, value, message):
    doc = {"bounds": [0, 0, 20, 20], "robot_radius": 0.2, "turning_radius": 0.5,
           "start": [1, 1], "goal": [19, 19], "obstacles": [], key: value}
    with pytest.raises(ValueError, match=message):
        load_scenario(io.StringIO(json.dumps(doc)))


def test_load_scenario_missing_key():
    with pytest.raises(ValueError):
        load_scenario(io.StringIO(json.dumps({"bounds": [0, 0, 1, 1]})))


def test_load_scenario_start_outside_bounds():
    doc = {
        "bounds": [0, 0, 10, 10],
        "robot_radius": 0.2,
        "turning_radius": 0.5,
        "start": [-5, 1],
        "goal": [9, 9],
        "obstacles": [],
    }
    with pytest.raises(ValueError):
        load_scenario(io.StringIO(json.dumps(doc)))
