"""The benchmark's library calls, on shrunken copies of its workloads.

``perfbench/`` calls the library directly in its traced walk
(``layers.walk``) and in its store round trip
(``checks.check_round_trip``), so an API change that breaks either makes
a benchmark run fail.  This runs both on each workload, scaled down to
a few dozen blocks, and requires that they report no problem.
"""

import dataclasses
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, squeeze_flags  # noqa: E402

SMALL_BLOCKS = 40


def _shrunk(workload):
    if workload.name == "wide":
        return dataclasses.replace(workload, plan={**workload.plan, "txs_per_block": 40}, probe=None)
    small = dataclasses.replace(workload, plan={**workload.plan, "n_blocks": SMALL_BLOCKS})
    if workload.name == "squeeze":
        small = dataclasses.replace(small, flags=squeeze_flags(SMALL_BLOCKS))
    return small


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_walk_and_round_trip_report_no_problem(name, tmp_path):
    workload = _shrunk(WORKLOADS[name])
    setup = run.ChainSetup(workload, 1, tmp_path)
    setup.generate()
    assert setup.problems == []
    exp = setup.expected()
    store_dir = tmp_path / "store"
    _, problems = layers.walk(layers.Tracer(), str(setup.path), str(store_dir), exp, workload.flags)
    assert problems == []
    assert checks.check_round_trip(str(store_dir), exp) == []
