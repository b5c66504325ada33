import functools
import shutil
import tempfile

from borelideals import root_system


def pytest_configure(config):
    """Give Hypothesis a temporary home directory in place of ./.hypothesis.

    Its pytest plugin caches constants read from local source there while
    collecting, even when the property tests keep no example database.
    """
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # only tests/test_properties.py needs hypothesis
        return
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


@functools.lru_cache(maxsize=None)
def system(family: str, rank: int):
    """Build-once cache so tests can share RootSystem instances freely."""
    return root_system(family, rank)
