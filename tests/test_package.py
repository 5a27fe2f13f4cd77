import types

import cyclosum


def test_all_entries_resolve_and_are_not_modules():
    assert cyclosum.__all__
    assert len(set(cyclosum.__all__)) == len(cyclosum.__all__)
    for name in cyclosum.__all__:
        value = getattr(cyclosum, name)
        assert not isinstance(value, types.ModuleType), name
