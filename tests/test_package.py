"""The package's public names: a name deleted from a module must also
leave ``centdet.__all__``, or ``from centdet import *`` breaks."""

import centdet


def test_all_names_resolve():
    assert [name for name in centdet.__all__ if not hasattr(centdet, name)] == []
    assert len(set(centdet.__all__)) == len(centdet.__all__)
