import resim


def test_every_exported_name_resolves():
    missing = [name for name in resim.__all__ if not hasattr(resim, name)]
    assert missing == []
    assert len(set(resim.__all__)) == len(resim.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from resim import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(resim.__all__)
