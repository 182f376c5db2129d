"""Benchmark-suite conftest.

``pytest benchmarks/ --benchmark-only`` deselects tests that do not use
the ``benchmark`` fixture.  The experiment-regeneration tests here *are*
the deliverable (they print the paper-vs-measured tables), so under
``--benchmark-only`` every test is given the fixture and runs (and
reports) anyway.  Without ``--benchmark-only`` nothing is injected: an
injected fixture a test never calls only makes pytest-benchmark warn
that it went unused.
"""


def pytest_collection_modifyitems(config, items):
    """Under --benchmark-only, treat every test here as benchmark-enabled.

    pytest-benchmark's --benchmark-only mode skips tests whose fixture
    list lacks ``benchmark``; experiment tests regenerate the paper's
    tables/figures and must run either way, so inject the fixture name.
    """
    if not config.getoption("benchmark_only", default=False):
        return
    for item in items:
        fixturenames = getattr(item, "fixturenames", None)
        if fixturenames is not None and "benchmark" not in fixturenames:
            fixturenames.append("benchmark")
