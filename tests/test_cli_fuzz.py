"""Byte-mutated quick-start inputs end in exit 0, or in exit 1 with one `ERROR <Code>: ` line.

Never a traceback and never a warning: every run of a command on a mutated
input must give one of the two documented results.
"""
import re
import shutil
import tempfile
import traceback
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from workforecast.cli import cli

from helpers import quickstart_args, quickstart_inputs

ERROR_LINE = re.compile(r"ERROR [A-Za-z]+: ")
# Bytes that delimit rows, fields and numbers in CSV and JSON, or are not UTF-8, come up
# more often; any byte can be drawn.
LIKELY = b'\n\r",.-+:eE0123456789 {}[]\x00\xff'

byte_values = st.one_of(st.sampled_from(LIKELY), st.integers(0, 255))
edits = st.lists(
    st.tuples(st.sampled_from(("substitute", "insert", "delete")), st.integers(0, 2**16), byte_values),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, changes) -> bytes:
    out = bytearray(data)
    for kind, position, value in changes:
        if kind == "insert":
            out.insert(position % (len(out) + 1), value)
        elif out and kind == "substitute":
            out[position % len(out)] = value
        elif out:
            del out[position % len(out)]
    return bytes(out)


@pytest.mark.parametrize("command", ["features", "performance", "fit", "evaluate", "figures"])
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(data=st.data())
def test_mutated_input_exits_zero_or_with_one_error_line(quickstart, command, data):
    inputs = quickstart_inputs(command)
    target = data.draw(st.sampled_from(inputs), label="input")
    changes = data.draw(edits, label="edits")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in inputs:
            shutil.copyfile(quickstart / name, root / name)
        (root / target).write_bytes(_mutate((quickstart / target).read_bytes(), changes))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(cli, quickstart_args(command, root), env={"WF_NO_COLOR": "1"})

    if result.exception is not None and not isinstance(result.exception, SystemExit):
        pytest.fail("".join(traceback.format_exception(result.exception)))
    assert [str(w.message) for w in caught] == []
    assert result.exit_code in (0, 1), result.output
    if result.exit_code == 1:
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and ERROR_LINE.match(lines[0]), result.stderr
