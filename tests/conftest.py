import gc

import pytest

from helpers import write_quickstart


@pytest.fixture(scope="session")
def quickstart(tmp_path_factory):
    """The quick-start inputs of every command in `helpers.QUICKSTART_OPTIONS`, in one directory."""
    root = tmp_path_factory.mktemp("quickstart")
    write_quickstart(root)
    return root


@pytest.fixture(autouse=True)
def unfreeze_gc():
    """Put back under the collector what a test left frozen: an in-process CLI command freezes the process's heap.

    Without this, a later test's `gc.collect()` would not reach garbage frozen by an earlier test.
    """
    yield
    if gc.get_freeze_count():
        gc.unfreeze()
