"""The reader rejects body records the writer never writes.

The writer gives every compact record at least one tx and every
minimized record at least one kept tx.  A compact record with no tx
would otherwise reach the Merkle check with no leaves, and a minimized
record with no kept tx would pass verify while holding nothing to
check.  Each one, written in place of the tip's body record with the
manifest made to agree, must fail the ``decode`` check with a report,
and ``ledgerpack verify`` must exit 1 without a traceback.
"""

import io

import pytest

from ledgerpack import cli
from ledgerpack.chain import build_chain
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import (
    KIND_COMPACT,
    KIND_MINIMIZED,
    BodyRecord,
    build_store_model,
    integrity_check,
    write_store,
)
from ledgerpack.strategies import StrategyConfig
from ledgerpack.wire import read_block_stream

EMPTY_RECORDS = {
    "compact_no_tx": (KIND_COMPACT, b"\x00"),
    # tx mode 0, n_leaves 0, no kept tx, no co-path node
    "minimized_no_kept_tx": (KIND_MINIMIZED, b"\x00\x00\x00\x00"),
}


def _store_with_tip_record(tmp_path, kind, payload):
    data, _ = gen_chain(ChainPlan(seed=7, n_blocks=6))
    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    model = build_store_model(blocks, build_chain(blocks), StrategyConfig(slack=True))
    tip = model.bodies[-1]
    assert tip.height == model.tip
    # before the model serializes its files, so the manifest digests agree
    model.bodies[-1] = BodyRecord(tip.height, kind, payload)
    path = str(tmp_path / "store")
    write_store(model, path)
    return path


@pytest.mark.parametrize("label", list(EMPTY_RECORDS))
def test_integrity_check_reports_the_record_as_a_decode_failure(tmp_path, label):
    path = _store_with_tip_record(tmp_path, *EMPTY_RECORDS[label])
    report = integrity_check(path)
    assert not report.passed
    assert [c.name for c in report.failures] == ["decode"]
    assert report.failures[0].detail.startswith("DecodeError: ")


@pytest.mark.parametrize("label", list(EMPTY_RECORDS))
def test_verify_exits_1_without_a_traceback(tmp_path, capsys, label):
    path = _store_with_tip_record(tmp_path, *EMPTY_RECORDS[label])
    assert cli.main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert "decode,,0,DecodeError: " in captured.out
    assert "Traceback" not in captured.err
