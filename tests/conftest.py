"""Suite-wide settings and fixtures.

Property tests draw their examples from a fixed derandomized sequence and
have no per-example deadline, so they neither flake nor time out on a slow
or loaded machine.
"""

import weakref

import pytest
from hypothesis import settings

from rootspin import roots

settings.register_profile("rootspin", derandomize=True, deadline=None)
settings.load_profile("rootspin")


@pytest.fixture
def fresh_lattices(monkeypatch):
    """An empty Lattice registry for one test.

    A RootSystem shares its one record, the Lattice that holds the order,
    the decoded roots, the stored facts and the record of the induced set,
    with any live set with the same rows, and the caches keep earlier tests'
    sets alive, so a test that counts Lattice builds, decodes or inductions
    starts from a registry that only its own sets fill; a new instance of a
    preset (build_preset.__wrapped__) then has nothing stored.  On teardown the real
    registry adopts each entry it has no entry for, so a set the test left in
    a cache shares its Lattice with later sets of its rows.
    """
    real, fresh = roots._LATTICES, weakref.WeakValueDictionary()
    monkeypatch.setattr(roots, "_LATTICES", fresh)
    yield fresh
    for key, found in list(fresh.items()):
        real.setdefault(key, found)
