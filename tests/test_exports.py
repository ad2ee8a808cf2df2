"""The package's public names resolve.

`from adacof import *` and the README read adacof.__all__; a name left
there after its definition is deleted would break both without failing
any other test.
"""

import adacof


def test_every_exported_name_resolves_on_the_package():
    assert adacof.__all__
    missing = [name for name in adacof.__all__ if not hasattr(adacof, name)]
    assert not missing, f"adacof.__all__ names what the package lacks: {missing}"
    assert len(set(adacof.__all__)) == len(adacof.__all__)
