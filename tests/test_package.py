import attackcf


def test_star_import_binds_every_exported_name():
    namespace = {}
    # a name in __all__ that the package does not bind fails the import
    exec("from attackcf import *", namespace)
    assert set(attackcf.__all__) <= namespace.keys()


def test_export_list_has_no_repeats():
    assert len(attackcf.__all__) == len(set(attackcf.__all__))
