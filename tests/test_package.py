"""The package's export list: every name it promises can be imported."""

import multigrain


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from multigrain import *", namespace)
    missing = [name for name in multigrain.__all__ if name not in namespace]
    assert not missing, f"multigrain.__all__ names what the package lacks: {missing}"
    assert len(set(multigrain.__all__)) == len(multigrain.__all__)
