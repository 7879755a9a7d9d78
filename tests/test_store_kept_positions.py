"""The reader rejects minimized records whose kept positions the writer
never writes.

The writer lists a minimized record's kept txs by position, strictly
ascending and each below the block's leaf count.  A record that repeats
a position, lists them out of order or names one past the last leaf,
written in place of the first minimized record of a 30-block minimize
store with the manifest made to agree, must fail the ``decode`` check
with a report, and ``ledgerpack verify`` must exit 1 without a
traceback.
"""

import csv
import io

import pytest

from ledgerpack import cli
from ledgerpack.chain import build_chain
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import KIND_MINIMIZED, BodyRecord, build_store_model, integrity_check, write_store
from ledgerpack.strategies import StrategyConfig, deserialize_minimized, serialize_minimized
from ledgerpack.wire import read_block_stream

# the first minimized record keeps position 1 of 2 leaves; each case maps
# that one kept tx's bytes to the positions listed
BAD_POSITIONS = {
    "repeated": [1, 1],
    "descending": [1, 0],
    "past_last_leaf": [2],
}


def _store_with_positions(tmp_path, positions):
    data, _ = gen_chain(ChainPlan(seed=7, n_blocks=30))
    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    model = build_store_model(blocks, build_chain(blocks), StrategyConfig(minimize=True))
    i, rec = next((i, r) for i, r in enumerate(model.bodies) if r.kind == KIND_MINIMIZED)
    mb = deserialize_minimized(rec.payload[1:], b"", b"")
    assert (mb.n_leaves, [pos for pos, _ in mb.kept]) == (2, [1])
    tx = mb.kept[0][1]
    mb.kept = [(pos, tx) for pos in positions]
    # before the model serializes its files, so the manifest digests agree
    model.bodies[i] = BodyRecord(rec.height, KIND_MINIMIZED, rec.payload[:1] + serialize_minimized(mb))
    path = str(tmp_path / "store")
    write_store(model, path)
    return path


@pytest.mark.parametrize("label", list(BAD_POSITIONS))
def test_integrity_check_reports_the_record_as_a_decode_failure(tmp_path, label):
    path = _store_with_positions(tmp_path, BAD_POSITIONS[label])
    report = integrity_check(path)
    assert not report.passed
    assert [c.name for c in report.failures] == ["decode"]
    assert report.failures[0].detail.startswith("DecodeError: ")


@pytest.mark.parametrize("label", list(BAD_POSITIONS))
def test_verify_exits_1_without_a_traceback(tmp_path, capsys, label):
    path = _store_with_positions(tmp_path, BAD_POSITIONS[label])
    assert cli.main(["verify", path]) == 1
    captured = capsys.readouterr()
    failed = [row for row in csv.DictReader(io.StringIO(captured.out)) if row["ok"] == "0"]
    assert [row["check"] for row in failed] == ["decode"]
    assert failed[0]["detail"].startswith("DecodeError: ")
    assert "Traceback" not in captured.err
