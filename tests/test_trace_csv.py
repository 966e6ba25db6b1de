"""Step-trace CSVs: the column reader and the joined writer against row-by-row oracles.

``read_trace_csv`` parses a trace one column at a time and re-reads a file it
cannot parse with its row loop, which names the fault.  ``row_loop_read``
below is that row loop as a whole reader: every file must give the same
``StepTrace``, bit for bit, or the same error message from both.
``write_trace_csv`` joins its rows itself; ``csv_writer_write`` writes them
with ``csv.writer``, and the bytes must be equal.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pneuctrl.sysid import TRACE_COLUMNS, StepTrace, TraceDataError, read_trace_csv, write_trace_csv


def row_loop_read(path):
    """The trace reader that checks and converts one row at a time."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_COLUMNS:
                raise TraceDataError(f"{path}: expected columns {','.join(TRACE_COLUMNS)}")
            ts, ps, u1s, u2s, kinds = [], [], [], [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != 5:
                    raise TraceDataError(f"{path}: line {reader.line_num}: malformed row {row!r}")
                try:
                    t, p, u1, u2 = (float(v) for v in row[:4])
                except ValueError as exc:
                    raise TraceDataError(f"{path}: line {reader.line_num}: malformed row {row!r}: {exc}") from exc
                if not all(math.isfinite(v) for v in (t, p, u1, u2)):
                    raise TraceDataError(f"{path}: line {reader.line_num}: non-finite value in row {row!r}")
                ts.append(t)
                ps.append(p)
                u1s.append(u1)
                u2s.append(u2)
                kinds.append(row[4])
    except UnicodeDecodeError as exc:
        raise TraceDataError(f"{path}: not valid UTF-8: {exc}") from exc
    if not ts:
        raise TraceDataError(f"{path}: empty trace")
    if len(set(u1s)) != 1 or len(set(u2s)) != 1 or len(set(kinds)) != 1:
        raise TraceDataError(f"{path}: inputs must be constant within a segment")
    try:
        return StepTrace(t=np.asarray(ts), p=np.asarray(ps), u1=u1s[0], u2=u2s[0], kind=kinds[0])
    except ValueError as exc:
        raise TraceDataError(f"{path}: {exc}") from exc


def csv_writer_write(trace, path):
    """The trace writer that formats each row's fields for ``csv.writer``."""
    u1, u2 = f"{trace.u1:.1f}", f"{trace.u2:.1f}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(
            [f"{t:.6f}", f"{p:.6f}", u1, u2, trace.kind]
            for t, p in zip(trace.t.tolist(), trace.p.tolist())
        )


def outcome(read, path):
    """What ``read(path)`` gives: the trace's exact bits, or the error's type and message."""
    try:
        tr = read(path)
    except Exception as exc:    # noqa: BLE001 - any difference in the error is a failure
        return type(exc).__name__, str(exc)
    return tr.t.tobytes(), tr.p.tobytes(), repr(tr.u1), repr(tr.u2), tr.kind


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("trace_csv")


finite = st.floats(allow_nan=False, allow_infinity=False)
magnitudes = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e7, 1e7), finite)
duties = st.floats(0.0, 100.0)


@st.composite
def traces(draw, max_samples=60):
    n = draw(st.integers(10, max_samples))
    t0 = draw(st.floats(-1e6, 1e6))
    dts = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    t = np.cumsum([t0] + dts)
    p = np.asarray(draw(st.lists(magnitudes, min_size=n, max_size=n)))
    u1 = draw(st.one_of(st.sampled_from([0.0, 100.0]), duties))
    return StepTrace(t=t, p=p, u1=u1, u2=draw(duties), kind=draw(st.sampled_from(["rise", "decay"])))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=traces())
def test_write_matches_csv_writer_byte_for_byte(workdir, trace):
    write_trace_csv(trace, workdir / "joined.csv")
    csv_writer_write(trace, workdir / "oracle.csv")
    assert (workdir / "joined.csv").read_bytes() == (workdir / "oracle.csv").read_bytes()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=traces())
def test_round_trip_matches_the_row_loop(workdir, trace):
    path = workdir / "round_trip.csv"
    write_trace_csv(trace, path)
    got = outcome(read_trace_csv, path)
    assert got == outcome(row_loop_read, path)
    if isinstance(got[0], bytes):
        parsed = [float(f"{v:.6f}") for v in trace.p.tolist()]
        assert got[1] == np.asarray(parsed).tobytes()


# Cells a corrupted row may carry: numbers in the forms float() reads,
# text it rejects, non-finite values, and fields that need csv quoting.
CELLS = [
    "1.5", "-0.0", " 2.5 ", "1_000", "1e3", "1e400", "-1e400", "nan", "NaN", "inf", "-inf", "Infinity",
    "", "abc", "0x10", "١٢", '"7.25"', '"1,5"', '"3\n4"', '"a""b"', "rise", "decay", "hold",
]
LINE_ENDS = ["\n", "\r", "\r\n"]


@st.composite
def corrupted_files(draw):
    n = draw(st.integers(1, 400))
    rows = [[f"{0.01 * i:.6f}", f"{150000.0 + 7.0 * i:.6f}", "100.0", "60.0", "rise"] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["cell", "columns", "blank"]))
        if op == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(CELLS))
        elif op == "columns":
            k = draw(st.sampled_from([0, 1, 4, 6]))
            rows[i] = (rows[i] + ["9.0"])[:k] if k else []
        elif op == "blank":
            rows.insert(i, [])
    header = list(TRACE_COLUMNS) if draw(st.integers(0, 9)) else draw(
        st.sampled_from([["t_s", "p_pa"], [], list(TRACE_COLUMNS) + ["x"], ['"t_s"'] + list(TRACE_COLUMNS[1:])])
    )
    end = draw(st.sampled_from(LINE_ENDS))
    leading = [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
    lines = leading + [",".join(header)] + [",".join(row) for row in rows] + [""] * draw(st.integers(0, 3))
    data = end.join(lines).encode("utf-8") + (end.encode() if draw(st.booleans()) else b"")
    if draw(st.integers(0, 3)) == 0:
        # Invalid UTF-8, possibly past the decoder's first chunk and after a malformed row.
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[cut:]
    return data


def trace_file(rows, bad_utf8_at=None):
    """A trace CSV's bytes: the header, then ``rows``, one a line; invalid UTF-8 at byte ``bad_utf8_at``."""
    data = ("\n".join([",".join(TRACE_COLUMNS)] + rows) + "\n").encode()
    return data if bad_utf8_at is None else data[:bad_utf8_at] + b"\xff" + data[bad_utf8_at:]


# 400 rows of about 38 bytes, more than the text decoder's first 8 KB chunk; line 5 is malformed.
BAD_LINE_5 = [f"{0.01 * i:.6f},{150000.0 + 7.0 * i:.6f},100.0,60.0,rise" for i in range(400)]
BAD_LINE_5[3] = "0.030000,abc,100.0,60.0,rise"
OVERSIZED_ROW = "0.1," + "1" * (csv.field_size_limit() + 1) + ",100.0,60.0,rise"


# Each example pins which fault the row loop reaches first, and so names:
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=corrupted_files())
@example(data=trace_file(BAD_LINE_5, bad_utf8_at=12_000))          # line 5, not the UTF-8 error past 8 KB
@example(data=trace_file(BAD_LINE_5, bad_utf8_at=40))              # the UTF-8 error, not line 5
@example(data=trace_file(BAD_LINE_5[:10] + [OVERSIZED_ROW]))       # line 5, not the oversized field
@example(data=trace_file(["", "", ""]))                            # empty trace
def test_any_file_reads_as_the_row_loop_reads_it(workdir, data):
    path = workdir / "seg.csv"
    path.write_bytes(data)
    assert outcome(read_trace_csv, path) == outcome(row_loop_read, path)


@pytest.mark.parametrize("end", LINE_ENDS, ids=["lf", "cr", "crlf"])
def test_line_ends_and_blank_lines_read_the_same(workdir, end):
    rows = [",".join(TRACE_COLUMNS)] + [f"{0.01 * i:.6f},150000.0,100.0,60.0,rise" for i in range(12)]
    rows.insert(5, "")
    path = workdir / "ends.csv"
    path.write_bytes((end.join(rows) + end * 3).encode())
    got = outcome(read_trace_csv, path)
    assert isinstance(got[0], bytes)
    assert got == outcome(row_loop_read, path)
