import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the long checks: tilting and antichain counts against the walk on every rank-6/7 orientation, "
        "tilting counts on A10/B10/D10, E7/E8 counts, the A14 row and verify_type, and the 1000-row triangle "
        "recursions and memory",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
