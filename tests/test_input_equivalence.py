"""The table readers, writer and spec-value parsers against input_oracle.

On any table text, `read_measured_costs` and `read_optimizations` must
return the rows the reference readers return, or raise the same exception
type with the same message; `write_measured_costs` must write the same
bytes. Each experiment key's parser must return the reference parser's
value, or raise its exception type with its message.
"""

import dataclasses
import io

from hypothesis import given, settings
from hypothesis import strategies as st

import input_oracle as oracle
from pisim.cli import ExperimentSpec
from pisim.costmodel import MeasuredCosts, Protocol, read_measured_costs, write_measured_costs
from pisim.costmodel.tables import read_optimizations
from pisim.costmodel.types import KNOB_FACTORS

COST_COLUMNS = [f.name for f in dataclasses.fields(MeasuredCosts)]

# Cells of any kind: ones that parse as some column's type, and ones that do not.
CELLS = st.one_of(
    st.sampled_from(["sg", "cg", "SG", " cg ", "server-garbler", "mg", "resnet32", "c100",
                     "-", "", " ", "nope", "nan", "inf", "-inf", "1e8", "0", "-3", "0.5",
                     "1_000", " 7 ", "1.5e-300", "\"q\"", "2 3"]),
    st.integers(-10**6, 10**12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(blacklist_characters="\t\r\n"), max_size=6),
)
NAME = st.text(st.characters(blacklist_characters="\t\r\n\""), max_size=8)
COUNT = st.integers(0, 10**15).map(str)
SECONDS = st.floats(0, 1e6).map(repr) | st.integers(0, 10**6).map(str)
FACTOR = st.floats(1e-3, 1e3).map(repr)

# Cells that parse, by column.
VALID = {
    "protocol": st.sampled_from(["sg", "cg", "SG", " cg ", "client_garbler"]),
    "model": NAME,
    "dataset": NAME,
    "offline_latency_s": SECONDS,
    "online_latency_s": SECONDS,
    "client_storage_bytes": COUNT,
    "server_storage_bytes": COUNT,
    "bandwidth_bytes_per_s": SECONDS,
    "offline_comm_bytes": st.sampled_from(["-", ""]) | COUNT,
    "online_comm_bytes": st.sampled_from(["-", ""]) | COUNT,
    "name": NAME,
    **{f: FACTOR for f in KNOB_FACTORS},
    "notes": NAME,
}


def _rows(head):
    """Rows under a header: valid ones, valid ones cut short or with one
    cell replaced, and rows of any cells."""
    good = st.tuples(*(VALID.get(c, CELLS) for c in head)).map(list)
    cut = good.flatmap(lambda cells: st.integers(0, len(cells)).map(lambda n: cells[:n]))
    spoiled = st.tuples(good, st.integers(0, len(head)), CELLS).map(
        lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1:])
    return st.lists(good | cut | spoiled | st.lists(CELLS, max_size=len(head) + 2), max_size=4)


def _table(columns, required):
    """A header with every column, with only the required ones, or drawn at
    random from the columns and a few extra names; then its rows."""
    extra = st.lists(st.sampled_from([*columns, "extra", ""]), max_size=len(columns) + 2)
    header = st.permutations(columns) | st.permutations(required) | extra
    return st.just("") | header.flatmap(lambda head: _rows(head).map(
        lambda body: "".join("\t".join(cells) + "\n" for cells in [head, *body])))


def _outcome(fn, *args):
    try:
        return "value", repr(fn(*args))
    except Exception as exc:  # the type and message are what must agree
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(text=_table(COST_COLUMNS, COST_COLUMNS[:8]))
def test_read_measured_costs_matches_oracle(text):
    assert _outcome(read_measured_costs, io.StringIO(text)) == _outcome(
        oracle.read_measured_costs, io.StringIO(text))


@settings(max_examples=200, deadline=None)
@given(text=_table(oracle.KNOB_COLUMNS, oracle.KNOB_COLUMNS[:-1]))
def test_read_optimizations_matches_oracle(text):
    assert _outcome(read_optimizations, io.StringIO(text)) == _outcome(
        oracle.read_optimizations, io.StringIO(text))


ROWS = st.lists(
    st.builds(
        MeasuredCosts,
        protocol=st.sampled_from(list(Protocol)),
        model=st.text(max_size=8),
        dataset=st.text(max_size=8),
        offline_latency_s=st.floats(),
        online_latency_s=st.floats(),
        client_storage_bytes=st.integers(-10**15, 10**15),
        server_storage_bytes=st.integers(-10**15, 10**15),
        bandwidth_bytes_per_s=st.floats(),
        offline_comm_bytes=st.none() | st.integers(0, 10**15),
        online_comm_bytes=st.none() | st.integers(0, 10**15),
    ),
    max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(rows=ROWS)
def test_write_measured_costs_matches_oracle(rows):
    got, want = io.StringIO(), io.StringIO()
    write_measured_costs(got, rows)
    oracle.write_measured_costs(want, rows)
    assert got.getvalue() == want.getvalue()


SPEC_PARSE = {f.name: f.metadata["parse"] for f in dataclasses.fields(ExperimentSpec)}
TOKENS = st.sampled_from(["sg", "cg", "csv", "json", "serial", "pipelined", "table",
                          "component", "none", "inf", "Unbounded", "nan", "-1", "0", "1",
                          "2.5", "1e-300", "-0", "x", "", " ", ",", ", ", "  "])
SPEC_TEXT = st.one_of(
    st.integers(-3, 3).map(str),
    st.lists(TOKENS, max_size=5).map("".join),
    st.text(st.sampled_from("0123456789.-+e, abcinfINF_"), max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(oracle.SPEC_PARSERS)), text=SPEC_TEXT)
def test_spec_value_parsers_match_oracle(key, text):
    assert _outcome(SPEC_PARSE[key], text) == _outcome(oracle.SPEC_PARSERS[key], text)
