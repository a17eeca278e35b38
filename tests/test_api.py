"""The package's public surface."""

import pricelab


def test_every_exported_name_resolves():
    missing = [name for name in pricelab.__all__ if not hasattr(pricelab, name)]
    assert missing == []
    assert len(set(pricelab.__all__)) == len(pricelab.__all__)
