"""Skip tests marked ``slow`` unless SIMPLEXMOMENTS_SLOW=1 is set."""

import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SIMPLEXMOMENTS_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="set SIMPLEXMOMENTS_SLOW=1 to enable")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
