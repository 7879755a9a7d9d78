"""Decoded transactions keep their source bytes: encoding and txid read them.

Decoding through the identity codec records each transaction's wire
bytes (and where its witness begins); everything built by hand, copied
with ``dataclasses.replace`` or read through another script codec has
none and is encoded from its fields.
"""

import dataclasses
import struct

import pytest

from ledgerpack.errors import EncodeError
from ledgerpack.fixture import ChainPlan, gen_chain, gen_tx_corpus
from ledgerpack.strategies import RefScriptCodec, script_ref, slack_decode_tx, slack_encode
from ledgerpack.wire import (
    MAX_MONEY,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    decode_block,
    decode_transaction,
    dsha256,
    encode_block,
    encode_transaction,
    encode_transaction_legacy,
    encode_with_txid,
    txid,
)


@pytest.fixture(scope="module")
def corpus():
    return gen_tx_corpus(3303, 800)


def _has_noncanonical_width(tx):
    widths = [tx.input_count_width, tx.output_count_width]
    widths += [txin.script_len_width for txin in tx.inputs]
    widths += [txout.script_len_width for txout in tx.outputs]
    widths += [w for stack in tx.witnesses for w in stack.item_widths]
    return any(widths)


def test_decoded_tx_encodes_to_its_source_and_hashes_it(corpus):
    seen = {"legacy": 0, "segwit": 0, "coinbase": 0, "noncanonical": 0}
    for built in corpus.transactions:
        raw = encode_transaction(built)
        # decode from inside a larger buffer, so the span is a true slice
        tx, used = decode_transaction(b"\xaa\xbb" + raw + b"\xcc", 2)
        assert used == len(raw)
        assert tx.source == raw
        assert encode_transaction(tx) == raw

        from_fields = dataclasses.replace(tx)
        assert from_fields.source is None
        assert txid(tx) == dsha256(encode_transaction_legacy(from_fields)) == txid(built)
        assert encode_with_txid(tx) == encode_with_txid(from_fields) == (raw, txid(built))

        seen["segwit" if tx.has_witness_flag else "legacy"] += 1
        seen["coinbase"] += tx.is_coinbase()
        seen["noncanonical"] += _has_noncanonical_width(tx)
    assert all(seen.values()), seen


def test_decoded_block_encodes_to_its_frame_body():
    data, _ = gen_chain(
        ChainPlan(seed=3304, n_blocks=12, txs_per_block=6, segwit_fraction=0.5, noncanonical_rate=0.2)
    )
    offset = n_blocks = 0
    while offset < len(data):
        size = struct.unpack_from("<I", data, offset + 4)[0]
        body = data[offset + 8 : offset + 8 + size]
        block = decode_block(body)
        assert all(tx.source is not None for tx in block.transactions)
        assert encode_block(block) == body
        rebuilt = dataclasses.replace(
            block, transactions=[dataclasses.replace(tx) for tx in block.transactions]
        )
        assert encode_block(rebuilt) == body
        offset += 8 + size
        n_blocks += 1
    assert n_blocks == 12


def test_ref_codec_decode_has_no_span(corpus):
    scripts = {txout.script for tx in corpus.transactions for txout in tx.outputs if len(txout.script) > 8}
    codec = RefScriptCodec(scripts, {script_ref(s): s for s in scripts})
    for built in corpus.transactions[:200]:
        stored = encode_transaction(built, codec)
        tx, used = decode_transaction(stored, 0, codec)
        assert used == len(stored)
        assert tx.source is None
        assert encode_transaction(tx) == encode_transaction(built) != stored
        assert encode_transaction(tx, codec) == stored


def test_slack_compact_records_have_no_span(corpus):
    for built in corpus.transactions:
        raw = encode_transaction(built)
        record = slack_encode(built, corpus.locator)
        assert record[0] == 0x01
        tx, used = slack_decode_tx(record, corpus.resolve)
        assert used == len(record)
        assert tx.source is None
        assert encode_transaction(tx) == raw
        # a passthrough record's payload is the wire form itself
        tx, used = slack_decode_tx(b"\x00" + raw)
        assert used == 1 + len(raw) and tx.source == raw


def test_replaced_and_built_txs_have_no_span(corpus):
    assert all(tx.source is None for tx in corpus.transactions)
    built = corpus.transactions[1]
    raw = encode_transaction(built)
    tx, _ = decode_transaction(raw)
    changed = dataclasses.replace(tx, lock_time=tx.lock_time ^ 1)
    assert changed.source is None
    assert encode_transaction(changed) == raw[:-4] + struct.pack("<I", tx.lock_time ^ 1)
    assert txid(changed) != txid(tx)
    assert encode_transaction(tx) == raw  # the decoded original is untouched


def test_built_tx_above_max_money_still_raises():
    tx = Transaction(
        1, [TxIn(OutPoint(b"\x11" * 32, 0), b"\x51", 0xFFFFFFFF)], [TxOut(MAX_MONEY + 1, b"")], 0
    )
    for encode in (encode_transaction, encode_transaction_legacy, txid, encode_with_txid):
        with pytest.raises(EncodeError):
            encode(tx)
    decoded, _ = decode_transaction(encode_transaction(dataclasses.replace(tx, outputs=[TxOut(1, b"")])))
    with pytest.raises(EncodeError):
        encode_transaction(dataclasses.replace(decoded, outputs=[TxOut(MAX_MONEY + 1, b"")]))
