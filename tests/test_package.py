"""The package's export list."""

import mcde


def test_every_public_name_resolves():
    missing = [name for name in mcde.__all__ if not hasattr(mcde, name)]
    assert missing == []
    assert len(set(mcde.__all__)) == len(mcde.__all__)
