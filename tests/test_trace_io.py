"""The trace CSV reader's numpy block path against its row loop, and the
writer's run-length reprs against the plain map."""

import codecs
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftfreq import harness
from ftfreq.config import builtin_scenario
from ftfreq.errors import ConfigError
from ftfreq.harness import _read_rows, _read_trace, _reprs, estimate_from_file, run_scenario

PERIOD = 0.001


def rows(count, start=0, y=lambda k: f"{0.5 - k * 1e-3!r}"):
    return [f"{k * PERIOD!r},{y(k)}" for k in range(start, start + count)]


def text(lines, end="\n"):
    return "time,y" + end + "".join(line + end for line in lines)


def with_row(index, line, count=6):
    body = rows(count)
    body[index] = line
    return text(body)


def off_grid_after_blanks():
    body = rows(6)
    body[4:4] = ["", "", ""]
    body[-1] = "0.0123,0.5"
    return text(body)


def bad_byte_at(row, count):
    """A trace whose line `row` (the header is row 1) holds a byte that is
    not UTF-8."""
    lines = text(rows(count)).encode().splitlines(keepends=True)
    lines[row - 1] = lines[row - 1].replace(b",", b",\xff", 1)
    return b"".join(lines)


# name -> file contents: each case one feature the two paths must agree on
TRACES = {
    "plain": text(rows(6)),
    "late-start": text(rows(6, start=123456)),
    "times-within-slack": text([f"{k * PERIOD * (1 + 1e-12)!r},0.5" for k in range(1, 7)]),
    "crlf": text(rows(6), "\r\n"),
    "lone-cr": text(rows(6), "\r"),
    "byte-order-mark": codecs.BOM_UTF8 + text(rows(6)).encode(),
    "empty-lines": text(["", *rows(3), "", "", *rows(3, 3), ""]),
    "whitespace-only-lines": text([*rows(3), " \t", *rows(3, 3), "  "]),
    "extra-columns": text([line + ",7,x" for line in rows(6)]),
    "trailing-comma": text([line + "," for line in rows(6)]),
    "spaces-and-tabs": text([" " + line.replace(",", " ,\t") + "\t " for line in rows(6)]),
    "underscore": with_row(2, "0.002,1_5"),
    "signed-exponent": with_row(2, "0.002,+.5e-3"),
    "non-finite-y": text(rows(6, y=lambda k: ["Infinity", "nan", "-nan", "-inf", "1e999",
                                               "0.5"][k])),
    "comment-line": with_row(2, "# a note"),
    "one-column": with_row(2, "0.002"),
    "empty-field": with_row(2, "0.002,"),
    "non-finite-first-time": with_row(0, "nan,0.5"),
    "non-finite-later-time": with_row(3, "inf,0.5"),
    "off-grid-after-blank-lines": off_grid_after_blanks(),
    "header-only": "time,y\n",
    "blank-body": "time,y\n\n\r\n\n",
    "wrong-header": text(rows(6)).replace("time,y", "t,y", 1),
    "not-utf8-at-row-1000": bad_byte_at(1000, 1200),
    "not-utf8-past-first-block": bad_byte_at(5000, 5200),
    "several-blocks": text(rows(10000)),
    "off-grid-in-second-block": text([*rows(4500), "4.5001,0.5"]),
    "blank-block": text([*rows(4096), *[""] * 4096, *rows(10, 4096)]),
    "blank-last-block": text([*rows(4096), "", ""]),
}


@pytest.mark.parametrize("name", TRACES)
def test_reader_matches_row_loop(tmp_path, name):
    contents = TRACES[name]
    path = tmp_path / "trace.csv"
    path.write_bytes(contents.encode() if isinstance(contents, str) else contents)
    try:
        expected = _read_rows(str(path), PERIOD)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as info:
            _read_trace(str(path), PERIOD)
        assert info.value.violations == exc.violations
        return
    got = _read_trace(str(path), PERIOD)
    for array, want in zip(got, expected):
        assert array.dtype == np.float64 and array.flags.c_contiguous
        assert array.tobytes() == want.tobytes()


def test_written_trace_skips_row_loop(tmp_path):
    # a trace the harness wrote is one the block reader takes whole, so a
    # silent fallback to the row loop fails here instead of costing time
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=9.0))
    sim = run_scenario(cfg, out_dir=str(tmp_path / "sim"))
    with mock.patch.object(harness, "_read_rows", side_effect=AssertionError("row loop")):
        replay = estimate_from_file(sim.trace_path, cfg, out_dir=str(tmp_path / "replay"))
    assert (tmp_path / "replay" / "estimates.csv").read_bytes() == \
        (tmp_path / "sim" / "estimates.csv").read_bytes()
    assert len(replay.trajectory) == len(sim.trajectory) > harness._READ_LINES


def test_loadtxt_converts_as_float_does():
    # the block reader's arrays are the row loop's only while numpy's
    # conversion is float()'s, bit for bit
    bits = np.random.default_rng(36).integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
    strings = list(map(repr, bits.view(np.float64).tolist()))
    strings += ["1e309", "-1e400", "1.7976931348623157e308", "1.7976931348623158e308",
                "1.7976931348623159e308", "4.9e-324", "2.4703282292062328e-324",
                "2.4703282292062327e-324", "2.2250738585072011e-308", "1e-400", "-0.0",
                "0." + "1" * 800, "9" * 400 + "e-400", "2.5" + "0" * 600 + "1e-324",
                "1" * 300, "nan", "-nan", "inf", "-Infinity", "+.5e-3", "1.e5"]
    parsed = np.loadtxt([f"0,{s}\n" for s in strings], delimiter=",", comments=None,
                        usecols=(0, 1), ndmin=2)[:, 1]
    want = np.array([float(s) for s in strings])
    assert parsed.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def from_bits(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


SPECIAL = [0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324, 2.2250738585072e-308,
           from_bits(0x7FF8000000000000), from_bits(0xFFF8000000000000),
           from_bits(0x7FF8000000000001), from_bits(0x7FF0000000000001)]
runs = st.tuples(st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False)),
                 st.integers(1, 60))


@settings(max_examples=200, deadline=None)
@given(st.lists(runs, max_size=40), st.integers(0, 600), st.booleans())
def test_run_reprs_are_reprs(run_list, length, strided):
    values = [value for value, count in run_list for _ in range(count)][:length]
    if strided:  # a column of a row block, as theta_hat[a:b].T yields
        block = np.zeros((len(values), 3))
        block[:, 1] = values
        array = block.T[1]
    else:
        array = np.array(values, dtype=np.float64)
    assert _reprs(array) == list(map(repr, array.tolist()))
