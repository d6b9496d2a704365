"""Static checks: every global name a function reads is bound at module level or is a builtin,
and the source tree does not grow.

numpy is imported inside the functions that use it, so a missing local import
would only fail, as a NameError, on the path that runs it. This check finds
such a name without running anything.
"""
import builtins
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "workforecast"

# The line count of src/workforecast/*.py is a tracked number: a change that
# deletes code lowers this ceiling to the count it lands at.
SRC_LINE_CEILING = 2007


def _function_tables(table):
    for child in table.get_children():
        if child.get_type() == "function":
            yield child
        yield from _function_tables(child)


def _unbound_globals(path: Path) -> list[str]:
    module = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    bound = {s.get_name() for s in module.get_symbols() if s.is_assigned() or s.is_imported()}
    known = bound | set(dir(builtins)) | {"__file__"}
    return sorted(
        f"{function.get_name()}:{function.get_lineno()}: {symbol.get_name()}"
        for function in _function_tables(module)
        for symbol in function.get_symbols()
        if symbol.is_global() and symbol.is_referenced() and symbol.get_name() not in known
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_global_read_in_a_function_is_bound(path):
    assert _unbound_globals(path) == []


def test_a_missing_local_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def f(x):\n    return np.sqrt(x)\n\n\ndef g(x):\n    import numpy as np\n    return np.sqrt(x)\n")
    assert _unbound_globals(module) == ["f:1: np"]


def test_src_line_count_does_not_grow():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CEILING
