import blockqkd


def test_public_names_resolve():
    names = blockqkd.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(blockqkd, name), name
    namespace = {}
    exec("from blockqkd import *", namespace)
    assert set(names) <= set(namespace)
