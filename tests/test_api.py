"""The package's public name list."""

import mslca


def test_all_names_resolve_once():
    names = mslca.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mslca, name), name
