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
    except ImportError:  # only the property tests and the row-cut tests of tests/test_linalg.py need hypothesis
        return
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


@functools.lru_cache(maxsize=None)
def system(family: str, rank: int):
    """Build-once cache so tests can share RootSystem instances freely."""
    return root_system(family, rank)


def antichain_ideals(rs) -> dict[int, int]:
    """Up-closure mask of each antichain of the root poset, mapped to the antichain's size.

    An oracle for the ideal search that shares nothing with it but
    ``_up_masks``: a depth-first search over antichains whose state is the
    transitive closure of the simple steps up and its converse.  Roots join
    in index order, each incomparable to those already chosen.  An ideal is
    the up-closure of its minimal roots, so each ideal appears exactly once.
    """
    n = len(rs._up_masks)
    above = [0] * n  # roots strictly above g; steps up go to higher indices
    for g in reversed(range(n)):
        for h in range(g + 1, n):
            if rs._up_masks[g] >> h & 1:
                above[g] |= 1 << h | above[h]
    comparable = above[:]
    for g in range(n):
        for h in range(g + 1, n):
            if above[g] >> h & 1:
                comparable[h] |= 1 << g
    closures: dict[int, int] = {}

    def grow(free: int, closure: int, size: int) -> None:
        closures[closure] = size
        while free:
            bit = free & -free
            free ^= bit
            g = bit.bit_length() - 1
            grow(free & ~comparable[g], closure | bit | above[g], size + 1)

    grow((1 << n) - 1, 0, 0)
    return closures
