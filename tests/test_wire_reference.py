"""The inlined wire decoders against the decoders they replaced.

``tests/reference_wire.py`` keeps the previous ``decode_transaction``,
``decode_witness_stacks`` and ``decode_block`` verbatim.  For every
input below, through the identity codec and through ``RefScriptCodec``,
both decoders must either return equal results (the same transaction,
bytes consumed, source bytes, witness offset and varint widths) or raise
the same exception class with the same message, offset and field.  The
inputs are a transaction corpus and fixture blocks, cut at every length
and with seeded 1-3 byte flips.
"""

import random
import struct

import pytest

import reference_wire as ref
from ledgerpack.fixture import ChainPlan, gen_chain, gen_tx_corpus
from ledgerpack.strategies import RefScriptCodec, script_ref
from ledgerpack.wire import (
    IDENTITY_CODEC,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    WitnessStack,
    decode_block,
    decode_transaction,
    decode_witness_stacks,
    encode_block,
    encode_transaction,
)

FLIPS_PER_INPUT = 12


def _outcome(fn, *args):
    try:
        return None, fn(*args)
    except Exception as exc:  # the class is part of what is compared
        return exc, None


def _widths(tx):
    return (
        tx.input_count_width,
        tx.output_count_width,
        [txin.script_len_width for txin in tx.inputs],
        [txout.script_len_width for txout in tx.outputs],
        [(stack.count_width, stack.item_widths) for stack in tx.witnesses],
    )


def _field_types(tx):
    types = {type(txin.script) for txin in tx.inputs}
    types |= {type(txin.previous_output.tx_hash) for txin in tx.inputs}
    types |= {type(txout.script) for txout in tx.outputs}
    types |= {type(item) for stack in tx.witnesses for item in stack.items}
    if tx.source is not None:
        types.add(type(tx.source))
    return types


def _assert_same_tx(got, want):
    assert got == want
    assert got.source == want.source
    assert got.witness_at == want.witness_at
    assert _widths(got) == _widths(want)
    assert _field_types(got) == {bytes}


def _assert_same_error(got, want):
    assert type(got) is type(want), (got, want)
    assert str(got) == str(want)
    assert getattr(got, "offset", None) == getattr(want, "offset", None)
    assert getattr(got, "field", None) == getattr(want, "field", None)


def _compare_tx(data, offset, codec):
    got_exc, got = _outcome(decode_transaction, data, offset, codec)
    want_exc, want = _outcome(ref.decode_transaction, data, offset, codec)
    if want_exc is not None or got_exc is not None:
        _assert_same_error(got_exc, want_exc)
        return "error"
    assert got[1] == want[1]
    _assert_same_tx(got[0], want[0])
    return "ok"


def _compare_block(data, codec):
    got_exc, got = _outcome(decode_block, data, codec)
    want_exc, want = _outcome(ref.decode_block, data, codec)
    if want_exc is not None or got_exc is not None:
        _assert_same_error(got_exc, want_exc)
        return "error"
    assert (got.header, got.raw_size_bytes, got.tx_count_width) == (
        want.header,
        want.raw_size_bytes,
        want.tx_count_width,
    )
    assert len(got.transactions) == len(want.transactions)
    for g, w in zip(got.transactions, want.transactions):
        _assert_same_tx(g, w)
    return "ok"


def _flipped(raw, rng):
    data = bytearray(raw)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
    return bytes(data)


def _nine_byte_widths():
    """Txs with 9-byte varints in every counted field, which the corpus lacks."""
    prevout = OutPoint(b"\x07" * 32, 1)
    return [
        Transaction(
            1,
            [TxIn(prevout, b"\x51" * 20, 0xFFFFFFFE, script_len_width=9)],
            [TxOut(1, b"\x6a" * 300, script_len_width=9), TxOut(2, b"", script_len_width=5)],
            0,
            input_count_width=9,
            output_count_width=5,
        ),
        Transaction(
            2,
            [TxIn(prevout, b"", 0, script_len_width=3), TxIn(OutPoint(b"\x08" * 32, 0), b"\x00", 0)],
            [TxOut(3, b"\x52" * 30)],
            7,
            has_witness_flag=True,
            witnesses=[
                WitnessStack([b"\x30" * 71, b""], count_width=9, item_widths=[9, 3]),
                WitnessStack([], count_width=5),
            ],
            input_count_width=3,
            output_count_width=9,
        ),
    ]


@pytest.fixture(scope="module")
def corpus():
    txs = gen_tx_corpus(4404, 120).transactions + _nine_byte_widths()
    widths = set()
    for tx in txs:
        widths |= {tx.input_count_width, tx.output_count_width}
        widths |= {txin.script_len_width for txin in tx.inputs}
        widths |= {txout.script_len_width for txout in tx.outputs}
        widths |= {w for stack in tx.witnesses for w in [stack.count_width, *stack.item_widths]}
    assert {3, 5, 9} <= widths
    assert any(tx.has_witness_flag for tx in txs) and any(tx.is_coinbase() for tx in txs)
    return txs


@pytest.fixture(scope="module")
def ref_codec(corpus):
    scripts = {txout.script for tx in corpus for txout in tx.outputs if len(txout.script) > 8}
    return RefScriptCodec(scripts, {script_ref(s): s for s in scripts})


@pytest.fixture(scope="module")
def blocks():
    data, _ = gen_chain(
        ChainPlan(seed=4405, n_blocks=10, txs_per_block=4, segwit_fraction=0.5, noncanonical_rate=0.2)
    )
    bodies = []
    offset = 0
    while offset < len(data):
        size = struct.unpack_from("<I", data, offset + 4)[0]
        bodies.append(data[offset + 8 : offset + 8 + size])
        offset += 8 + size
    return [decode_block(body) for body in bodies]


@pytest.mark.parametrize("codec_name", ["identity", "ref"])
def test_tx_decoder_matches_reference_at_every_truncation(corpus, ref_codec, codec_name):
    codec = IDENTITY_CODEC if codec_name == "identity" else ref_codec
    seen = {"ok": 0, "error": 0}
    for tx in corpus:
        raw = encode_transaction(tx, codec)
        # decode from inside a larger buffer, so error offsets are absolute
        framed = b"\x5a\xa5" + raw
        for cut in range(len(framed) + 1):
            seen[_compare_tx(framed[:cut], 2, codec)] += 1
        seen[_compare_tx(framed + b"\x00", 2, codec)] += 1
    assert seen["ok"] >= len(corpus) and seen["error"] > seen["ok"], seen


@pytest.mark.parametrize("codec_name", ["identity", "ref"])
def test_tx_decoder_matches_reference_under_byte_flips(corpus, ref_codec, codec_name):
    codec = IDENTITY_CODEC if codec_name == "identity" else ref_codec
    rng = random.Random(4406)
    seen = {"ok": 0, "error": 0}
    for tx in corpus:
        raw = encode_transaction(tx, codec)
        for _ in range(FLIPS_PER_INPUT):
            seen[_compare_tx(_flipped(raw, rng), 0, codec)] += 1
    assert seen["ok"] and seen["error"], seen


def test_tx_decoder_matches_reference_on_bytearray_and_memoryview(corpus):
    for tx in corpus[:60]:
        raw = encode_transaction(tx)
        for cut in (len(raw), len(raw) - 1, len(raw) // 2):
            _compare_tx(bytearray(raw[:cut]), 0, IDENTITY_CODEC)
            _compare_tx(memoryview(raw[:cut]), 0, IDENTITY_CODEC)


@pytest.mark.parametrize("codec_name", ["identity", "ref"])
def test_block_decoder_matches_reference(blocks, ref_codec, codec_name):
    codec = IDENTITY_CODEC if codec_name == "identity" else ref_codec
    rng = random.Random(4407)
    seen = {"ok": 0, "error": 0}
    for block in blocks:
        raw = encode_block(block, codec)
        for cut in range(len(raw) + 1):
            seen[_compare_block(raw[:cut], codec)] += 1
        seen[_compare_block(raw + b"\x00", codec)] += 1
        for _ in range(FLIPS_PER_INPUT * 4):
            seen[_compare_block(_flipped(raw, rng), codec)] += 1
    assert seen["ok"] >= len(blocks) and seen["error"], seen


def test_witness_stacks_match_reference(corpus, ref_codec):
    for codec in (IDENTITY_CODEC, ref_codec):
        for tx in [tx for tx in corpus if tx.has_witness_flag][-30:]:
            raw = encode_transaction(tx, codec)
            # every start offset, so counts and lengths are read from arbitrary bytes
            for start in range(len(raw) - 4):
                got_exc, got = _outcome(decode_witness_stacks, raw, start, len(tx.inputs), codec)
                want_exc, want = _outcome(ref.decode_witness_stacks, raw, start, len(tx.inputs), codec)
                if want_exc is not None or got_exc is not None:
                    _assert_same_error(got_exc, want_exc)
                else:
                    assert got == want  # WitnessStack equality includes the stored widths
