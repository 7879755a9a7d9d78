"""``slack_floor`` bounds every slack record from below, and the store
builds a minimized block's compact candidate only when the bound says it
might win.

The bound is what lets ``store._candidates`` skip the compact record of
a block that minimize shrinks: it must hold for every tx, script codec
and varint width, however the prevouts resolve.  Every record of a
seeded corpus (non-canonical widths included), under the identity codec
and a ``RefScriptCodec``, is checked with every prevout resolved to a
local position and with none resolved.  On a wide chain where minimize
keeps few txs per block, ``compact --minimize --slack`` then
slack-encodes only the kept txs of each minimized block.
"""

import io

import pytest

from blockkit import coinbase_tx
from ledgerpack import store
from ledgerpack.chain import build_chain
from ledgerpack.fixture import ChainPlan, gen_chain, gen_tx_corpus
from ledgerpack.store import build_store_model
from ledgerpack.strategies import RefScriptCodec, StrategyConfig, script_ref, slack_floor, slack_record
from ledgerpack.wire import IDENTITY_CODEC, encode_with_witness_at, read_block_stream


def _ref_codec(txs):
    scripts = sorted(
        {txin.script for tx in txs for txin in tx.inputs}
        | {txout.script for tx in txs for txout in tx.outputs}
        | {item for tx in txs for stack in tx.witnesses for item in stack.items}
    )
    # every other script goes behind a reference; the rest stay inline
    return RefScriptCodec({script_ref(s): s for s in scripts[::2]})


CORPUS = gen_tx_corpus(7707, 400).transactions
CODECS = {"identity": IDENTITY_CODEC, "ref": _ref_codec(CORPUS)}
LOCATES = {
    "every-prevout-local": lambda tx_hash: (7, 3),
    "no-prevout-resolved": lambda tx_hash: None,
}


@pytest.mark.parametrize("locate_name", list(LOCATES))
@pytest.mark.parametrize("codec_name", list(CODECS))
def test_every_slack_record_is_at_least_its_floor(codec_name, locate_name):
    codec, locate = CODECS[codec_name], LOCATES[locate_name]
    compact = 0
    for tx in CORPUS:
        stored, witness_at = encode_with_witness_at(tx, codec)
        record, tally = slack_record(tx, stored, witness_at, locate, codec)
        assert len(record) >= slack_floor(tx, stored), (codec_name, locate_name, tx)
        compact += tally[2]
    assert compact > len(CORPUS) // 2  # the compact form, not only passthrough, is tested


def test_the_floor_is_reached():
    """A segwit coinbase of the common version, with no lock time and
    one-byte output values, costs exactly its floor."""
    tx = coinbase_tx(5, out_scripts=[b"\x51", b"\x52"], value=7, witness=True)
    stored, witness_at = encode_with_witness_at(tx)
    record, _ = slack_record(tx, stored, witness_at, LOCATES["no-prevout-resolved"])
    assert len(record) == slack_floor(tx, stored)


# few txs per block keep an unspent output, so minimize drops most of each block
WIDE_PLAN = ChainPlan(
    seed=5, n_blocks=8, txs_per_block=300, outs_per_tx=(2, 4), spend_kind="fixed", spend_lifespan=1,
    dormant_fraction=0.05,
)


def test_minimized_blocks_encode_only_their_kept_txs(monkeypatch):
    data, _ = gen_chain(WIDE_PLAN)
    blocks = [block for block, _ in read_block_stream(io.BytesIO(data))]
    state = build_chain(blocks)
    unspent = {op.tx_hash for op in state.utxos}
    expected = 0
    dropping = 0
    for ids in state.index.txids:
        kept = sum(t in unspent for t in ids)
        # a block that keeps every tx has no minimized candidate, only compact
        expected += len(ids) if kept == len(ids) else kept
        dropping += 0 < kept < len(ids)

    calls = []
    real = store.slack_record
    monkeypatch.setattr(store, "slack_record", lambda tx, *args: calls.append(tx) or real(tx, *args))
    model = build_store_model(blocks, state, StrategyConfig(minimize=True, slack=True))
    assert dropping >= 4
    assert len(calls) == expected
    assert sum(rec.kind == store.KIND_MINIMIZED for rec in model.bodies) == dropping
