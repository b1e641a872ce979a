"""perfbench/: the package names its tracing swaps and its set-up calls.

The benchmark harness wraps package functions by name and builds its
instances through the package, so a change that deletes or renames one
of those names breaks the benchmark without failing any other test.
"""

from pathlib import Path

import pytest

from saferoute import model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["casestudy-sweep", "r101-distance"])
def test_tracing_installs_and_set_up_checks_out(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    before = dict(vars(model))
    instrumentation = tracing.Instrumentation()
    try:
        instrumentation.install()
        workload = workloads.WORKLOADS[name](0)
        built = workload.setup()
    finally:
        instrumentation.restore()
    assert vars(model) == before
    assert workload.check_setup(built) is None
