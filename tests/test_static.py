"""Static checks: every global name a function reads is bound at module level or is a builtin,
only the least-squares modules import numpy, every error class is used, and the source tree does not grow.

numpy is imported inside the functions that use it, so a missing local import
would only fail, as a NameError, on the path that runs it. This check finds
such a name without running anything.
"""
import ast
import builtins
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "workforecast"

# The line count of src/workforecast/*.py is a tracked number: a change that
# deletes code lowers this ceiling to the count it lands at.
SRC_LINE_CEILING = 1922

# The modules that run least squares; tests/test_startup.py checks at run time
# that the commands which do not reach them load no numpy.
NUMPY_IMPORTERS = {"model.py", "evaluate.py"}


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


def _imports_numpy(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_the_least_squares_modules_import_numpy():
    assert {path.name for path in SRC.glob("*.py") if _imports_numpy(path)} <= NUMPY_IMPORTERS


def test_a_numpy_import_inside_a_function_is_found(tmp_path):
    module = tmp_path / "module.py"
    for source, found in [
        ("def f():\n    import numpy as np\n", True),
        ("def f():\n    from numpy.random import default_rng\n", True),
        ("import numbers\nfrom . import numpy\n", False),
    ]:
        module.write_text(source)
        assert _imports_numpy(module) == found, source


def _unused_errors(package: Path) -> list[str]:
    """Classes of `package/errors.py` other than `DataError` that no other module of `package` reads by name."""
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"DataError"}
    read = set()
    for path in package.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return sorted(classes - read)


def test_every_error_class_is_used():
    assert _unused_errors(SRC) == []


def test_an_unused_error_class_is_found(tmp_path):
    """Only a read counts: an import alone leaves the class unused."""
    (tmp_path / "errors.py").write_text(
        "class DataError(Exception):\n    pass\n\n\n"
        + "".join(f"class {name}(DataError):\n    pass\n\n\n" for name in ("Raised", "Caught", "Imported", "Dead"))
    )
    (tmp_path / "stage.py").write_text(
        "from errors import Imported, Raised\nimport errors\n\n\n"
        "def f():\n    try:\n        raise Raised('x')\n    except errors.Caught:\n        pass\n"
    )
    assert _unused_errors(tmp_path) == ["Dead", "Imported"]


def test_src_line_count_does_not_grow():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CEILING
