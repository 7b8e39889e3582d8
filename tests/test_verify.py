"""The fixed `verify` registry, one pytest case per check."""

import pytest

from oscillwalk.verify import CHECKS


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_registry_check(name):
    CHECKS[name]()
