"""The package root exports exactly what it lists."""

import cstar_index


def test_every_exported_name_resolves():
    missing = [name for name in cstar_index.__all__ if not hasattr(cstar_index, name)]
    assert missing == []
