import types

import nonneg_dp
from nonneg_dp import bias, distributions, mechanisms, queries, verify


def test_package_exports_exactly_the_modules_public_names():
    exported = {n for n in dir(nonneg_dp) if not n.startswith("_")
                and not isinstance(getattr(nonneg_dp, n), types.ModuleType)}
    declared = set().union(*(m.__all__ for m in (bias, distributions, mechanisms, queries, verify)))
    assert exported == declared
