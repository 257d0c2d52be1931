"""The names the benchmark tracer (``perfbench/tracer.py``) reaches into.

The tracer is loaded from its file and only read: these tests fail when a
change to the package removes or reshapes something a traced run wraps,
before the slow traced benchmark run would.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from dicube.homology import ChainComplex, homology
from dicube.suite import REGISTRY

# the package re-exports the function homology under the module's name
homology_module = importlib.import_module("dicube.homology")

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_names_a_callable_of_the_package(tracer):
    for module_name, attr, _span in tracer.SPANS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_every_registered_check_can_be_rebuilt_around_a_wrapped_function():
    for spec in REGISTRY.values():
        assert dataclasses.replace(spec, fn=spec.fn) == spec


def test_the_dense_hook_reads_the_arguments_the_elimination_passes(tracer, monkeypatch):
    # d1 = [2] has no unit pivot, so the elimination hands it to the dense form
    calls = []
    real = homology_module._dense_smith

    def recording(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(homology_module, "_dense_smith", recording)
    assert homology(ChainComplex([1, 1], [[{0: 2}]]))[0].torsion == (2,)
    assert len(calls) == 1
    counters = {}
    for args, result in calls:
        tracer._count_dense(counters, "homology.elim", args, result)
    assert counters == {"homology.dense_rank": 1, "homology.dense_block": [1, 1, 1]}
