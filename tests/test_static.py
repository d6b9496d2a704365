"""Static checks: every global name a function reads is bound at module level or is a builtin,
only the least-squares modules import numpy, only the CLI imports gc, every error class is used,
every public function and class is read by the program itself, only `ingest.open_output` writes
a file, and the source tree does not grow.

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
SRC_LINE_CEILING = 1828

# The modules that run least squares, and import numpy for the arrays of a long
# leave-one-out run only; tests/test_startup.py checks at run time that no
# quick-start command loads it.
NUMPY_IMPORTERS = {"model.py", "evaluate.py"}

# The one module that decides the cyclic collector's state: the CLI pauses it around each command and
# freezes the heap after each command and at exit. A library function leaves the collector alone.
GC_IMPORTERS = {"cli.py"}


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


def _imports(path: Path, package: str) -> bool:
    """Whether the module at `path` imports `package` or one of its submodules, at any depth of its code."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        if any(name.split(".")[0] == package for name in names):
            return True
    return False


def test_only_the_least_squares_modules_import_numpy():
    assert {path.name for path in SRC.glob("*.py") if _imports(path, "numpy")} <= NUMPY_IMPORTERS


def test_a_numpy_import_inside_a_function_is_found(tmp_path):
    module = tmp_path / "module.py"
    for source, found in [
        ("def f():\n    import numpy as np\n", True),
        ("def f():\n    from numpy.random import default_rng\n", True),
        ("import numbers\nfrom . import numpy\n", False),
    ]:
        module.write_text(source)
        assert _imports(module, "numpy") == found, source


def test_only_the_cli_imports_gc():
    assert {path.name for path in SRC.glob("*.py") if _imports(path, "gc")} <= GC_IMPORTERS


def test_a_gc_import_inside_a_function_is_found(tmp_path):
    module = tmp_path / "module.py"
    for source, found in [
        ("def f():\n    import gc\n    gc.disable()\n", True),
        ("def f():\n    from gc import freeze\n", True),
        ("import gcd\nfrom . import gc\n", False),
    ]:
        module.write_text(source)
        assert _imports(module, "gc") == found, source


def _names_read(paths) -> set[str]:
    """Every name the modules at `paths` read, as a bare name or as an attribute."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _unused_errors(package: Path) -> list[str]:
    """Classes of `package/errors.py` other than `DataError` that no other module of `package` reads by name."""
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"DataError"}
    return sorted(classes - _names_read(path for path in package.glob("*.py") if path.name != "errors.py"))


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


def _is_command(node: ast.AST) -> bool:
    """A function that a click `command` or `group` decorator registers: the CLI, not the program, calls it."""
    return any(isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Attribute)
               and decorator.func.attr in ("command", "group") for decorator in node.decorator_list)


def _unread_public_names(package: Path) -> list[str]:
    """`module:name` of each top-level public function or class of `package` that none of its modules reads.

    Public means no leading underscore; click commands are exempt.
    """
    paths = list(package.glob("*.py"))
    read = _names_read(paths)
    return sorted(
        f"{path.stem}:{node.name}"
        for path in paths
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and not _is_command(node) and node.name not in read
    )


def test_every_public_name_is_read_by_the_program():
    """A public function or class that only tests call is a second path to keep in step with the first."""
    assert _unread_public_names(SRC) == []


def test_an_unread_public_name_is_found(tmp_path):
    """Only a read counts, in the same module or another; an import alone does not."""
    (tmp_path / "stage.py").write_text(
        "import click\n\n\n"
        "class Row:\n    pass\n\n\n"
        "def used():\n    return Row()\n\n\n"
        "def called_elsewhere():\n    pass\n\n\n"
        "def imported_only():\n    pass\n\n\n"
        "def dead():\n    pass\n\n\n"
        "def _private():\n    pass\n\n\n"
        "@click.group()\ndef cli():\n    pass\n\n\n"
        "@cli.command('run')\ndef run_cmd():\n    used()\n"
    )
    (tmp_path / "other.py").write_text(
        "import stage\nfrom stage import imported_only\n\n\ndef _f():\n    stage.called_elsewhere()\n"
    )
    assert _unread_public_names(tmp_path) == ["stage:dead", "stage:imported_only"]


def _file_writers(path: Path) -> list[str]:
    """`function:line` of each call in `path` that opens a file for writing or moves one into place.

    That is an `os.replace`, `os.rename` or `os.open`, a `write_text` or `write_bytes`, or an `open`
    (builtin or method) whose mode is not a literal read mode; an `open` given no mode reads.
    """
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            on_os = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os"
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            writes_mode = any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
                              or set(mode.value) & set("wax+") for mode in modes)
            if (on_os and name in ("replace", "rename", "open") or name in ("write_text", "write_bytes")
                    or name == "open" and not on_os and writes_mode):
                found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>")
    return found


def test_only_the_output_helper_writes_files():
    writers = {f"{path.name}:{where.split(':')[0]}" for path in SRC.glob("*.py") for where in _file_writers(path)}
    assert writers == {"ingest.py:open_output"}


def test_a_file_writer_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "def reads(path, text):\n"
        "    open(path)\n"
        "    open(path, 'r', encoding='ascii')\n"
        "    path.open('rb')\n"
        "    text.replace('a', 'b')\n"
        "def writes(path, mode):\n"
        "    open(path, 'w')\n"
        "    open(path, mode=mode)\n"
        "    path.open('a')\n"
        "    path.write_text('x')\n"
        "    os.replace(path, path)\n"
        "    with open(path, 'r+b') as fh:\n"
        "        pass\n"
    )
    assert _file_writers(module) == [f"writes:{line}" for line in range(8, 14)]


def test_src_line_count_does_not_grow():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/ has {lines} lines, above the ceiling of {SRC_LINE_CEILING}"
