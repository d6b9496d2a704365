import pytest

from helpers import write_quickstart


@pytest.fixture(scope="session")
def quickstart(tmp_path_factory):
    """The quick-start inputs of every command in `helpers.QUICKSTART_OPTIONS`, in one directory."""
    root = tmp_path_factory.mktemp("quickstart")
    write_quickstart(root)
    return root
