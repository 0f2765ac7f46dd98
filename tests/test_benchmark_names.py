"""The names that the benchmark's tracer wraps still resolve in ``lss``.

``perfbench/child.py --trace`` wraps functions by name, and a name it does
not find drops its metric from the traced result while the run still
reports ``correct``.  These tests read the tracer's tables and look the
names up without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _child()


@pytest.mark.parametrize(
    "metric, targets",
    [pytest.param(metric, targets, id=metric) for metric, _, targets in child.CALL_METRICS]
    + [pytest.param("cli.artifacts_s", child.ARTIFACT_WRITERS, id="cli.artifacts_s")],
)
def test_every_call_metric_has_a_callable_target(metric, targets):
    found = [
        f"{module}.{name}"
        for module, name in targets
        if callable(getattr(importlib.import_module(module), name, None))
    ]
    assert found, f"{metric}: none of {targets} is callable"


@pytest.mark.parametrize(
    "metric, names", [pytest.param(*item, id=item[0]) for item in child.ROUND_PHASES.items()]
)
def test_every_round_phase_has_a_name_callable_in_federation(metric, names):
    federation = importlib.import_module("lss.federation")
    assert any(callable(getattr(federation, name, None)) for name in names), (
        f"{metric}: none of {names} is callable in lss.federation"
    )
