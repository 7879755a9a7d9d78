"""Each transaction is encoded once per block's candidates.

With dedup on, the second encoding pass writes scripts through
``RefScriptCodec``, so a tx's stored form can no longer be sliced from
its source bytes and ``wire._serialize`` builds it from fields.  The raw
candidate, the compact candidate's passthrough comparison and the
minimized-stored candidate share that one serialization.  On the golden
"heavy" chain under prune+minimize+slack+dedup, the spy must count
exactly one call per tx the second pass encodes, and the first pass,
through the identity codec, must slice every tx and serialize none.

The minimized-slack candidate takes a kept tx's record from the compact
candidate, and slack-encodes the tx again only when one of its prevouts
points at a tx of the same block that the minimized record drops.
"""

import io
from collections import Counter

import pytest

from ledgerpack import store, wire
from ledgerpack.chain import build_chain
from ledgerpack.fixture import gen_chain
from ledgerpack.store import KIND_MINIMIZED, build_store_model
from ledgerpack.strategies import PruneConfig, RefScriptCodec, StrategyConfig
from test_golden import CHAINS, PRUNE_BLOCKS
from test_store_records import same_block_chain


def test_dedup_pass_serializes_each_stored_tx_once(monkeypatch):
    data, _ = gen_chain(CHAINS["heavy"])
    blocks = [b for b, _ in wire.read_block_stream(io.BytesIO(data))]
    state = build_chain(blocks)
    config = StrategyConfig(
        prune=PruneConfig("blocks", blocks=PRUNE_BLOCKS), minimize=True, slack=True, dedup=True
    )

    calls = []
    serialize = wire._serialize

    def spy(tx, codec):
        calls.append((id(tx), type(codec)))
        return serialize(tx, codec)

    monkeypatch.setattr(wire, "_serialize", spy)
    model = build_store_model(blocks, state, config)

    # the txs of every height the second pass encodes: retained heights
    # whose block still holds an unspent tx (minimize skips the others)
    unspent = {op.tx_hash for op in state.utxos}
    keep_from = model.keep_from
    encoded = [
        id(tx)
        for height in range(keep_from, len(blocks))
        if any(t in unspent for t in state.index.txids[height])
        for tx in blocks[height].transactions
    ]
    assert keep_from > 0 and model.config.dedup
    assert {codec for _, codec in calls} == {RefScriptCodec}
    assert sorted(tx for tx, _ in calls) == sorted(encoded)
    assert len(calls) == len(set(encoded))


@pytest.mark.parametrize("slack", [False, True])
def test_identity_pass_serializes_nothing(monkeypatch, slack):
    data, _ = gen_chain(CHAINS["heavy"])
    blocks = [b for b, _ in wire.read_block_stream(io.BytesIO(data))]
    state = build_chain(blocks)
    calls = []
    monkeypatch.setattr(wire, "_serialize", lambda tx, codec: calls.append(tx))
    build_store_model(blocks, state, StrategyConfig(minimize=True, slack=slack))
    assert calls == []


def test_minimized_slack_reencodes_only_txs_that_reference_dropped_ones(monkeypatch):
    blocks, a, b = same_block_chain()
    state = build_chain(blocks)
    calls = Counter()
    slack_record = store.slack_record

    def spy(tx, *args):
        calls[wire.txid(tx)] += 1
        return slack_record(tx, *args)

    monkeypatch.setattr(store, "slack_record", spy)
    model = build_store_model(blocks, state, StrategyConfig(minimize=True, slack=True))

    # height 1 keeps cb1, a and d; d spends the dropped b, so only d is
    # encoded a second time, for the minimized-slack candidate
    d = blocks[1].transactions[3]
    assert [rec.kind for rec in model.bodies if rec.height == 1] == [KIND_MINIMIZED]
    assert calls[wire.txid(d)] == 2
    assert calls[wire.txid(a)] == calls[wire.txid(b)] == 1
    assert sum(calls.values()) == len(blocks[1].transactions) + len(blocks[2].transactions) + 1
