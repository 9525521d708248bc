"""One target per artifact of the paper's evaluation (§IV) and per extra ablation.

Training runs are expensive and shared across artifacts (Fig. 2, the
receive rates and Tables II/III are the same ten runs), so the session
calls ``repro.experiments.artifacts.produce`` once, for the ids that
were selected.  Each id prints its artifact, saves it under
``benchmarks/out/`` as ``<stem>.txt`` (the rendering) and ``<stem>.json``
(the numbers ``repro report`` reads), and asserts the claims the
registry declares for it, so a regression that silently breaks the
reproduction fails.  Speed is not measured here: ``benchmark`` only makes
``--benchmark-only`` select these tests (``benchmarks/perf`` is the
performance benchmark).
"""

import os
from pathlib import Path

import pytest

from repro.experiments.artifacts import ARTIFACTS, produce

#: Scale used by the benchmark suite; override with REPRO_SCALE=paper.
SCALE_NAME = os.environ.get("REPRO_SCALE", "ci")

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def produced(request):
    """``{name: ArtifactResult}`` for the artifacts this session selected."""
    names = [
        item.callspec.params["name"]
        for item in request.session.items  # what -k / node ids left selected
        if item.name.startswith("test_artifact[")
    ]
    return produce(names, SCALE_NAME)


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_artifact(benchmark, produced, name):
    result = benchmark.pedantic(produced.get, args=(name,), rounds=1, iterations=1)
    print()
    print(result.render())
    result.save(OUT_DIR)
    failed = [check.render() for check in result.claims() if not check.verdict]
    assert not failed, "\n".join(failed)
