import hashlib
import io
import random
import struct

import pytest

from ledgerpack.errors import DecodeError, EncodeError, FramingError, TruncationError
from ledgerpack.wire import (
    Block,
    BlockHeader,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    WitnessStack,
    decode_block,
    decode_transaction,
    decode_varint,
    dsha256,
    encode_block,
    encode_transaction,
    encode_varint,
    frame_block,
    hash_hex,
    merkle_levels,
    merkle_root,
    read_block_stream,
    txid,
)

# the first coinbase transaction ever mined, 204 bytes
GENESIS_COINBASE_HEX = (
    "01000000010000000000000000000000000000000000000000000000000000000000000000"
    "ffffffff4d04ffff001d0104455468652054696d65732030332f4a616e2f32303039204368"
    "616e63656c6c6f72206f6e206272696e6b206f66207365636f6e64206261696c6f75742066"
    "6f722062616e6b73ffffffff0100f2052a01000000434104678afdb0fe5548271967f1a671"
    "30b7105cd6a828e03909a67962e0ea1f61deb649f6bc3f4cef38c4f35504e51ec112de5c38"
    "4df7ba0b8d578a4c702b6bf11d5fac00000000"
)
GENESIS_COINBASE_TXID = "4a5e1e4baab89f3a32518a88c31bc87f618f76673e2cc77ab2127b7afdeda33b"

GENESIS_HEADER_HEX = (
    "0100000000000000000000000000000000000000000000000000000000000000000000003b"
    "a3edfd7a7b12b27ac72c3e67768f617fc81bc3888a51323a9fb8aa4b1e5e4a29ab5f49ffff"
    "001d1dac2b7c"
)
GENESIS_BLOCK_HASH = "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f"


# ---------------------------------------------------------------------------
# varints


def test_varint_single_byte():
    assert decode_varint(b"\x00") == (0, 1)
    assert decode_varint(b"\xfc") == (0xFC, 1)


def test_varint_three_byte():
    assert decode_varint(b"\xfd\x26\x02") == (550, 3)


def test_varint_five_and_nine_byte():
    assert decode_varint(b"\xfe" + struct.pack("<I", 998000)) == (998000, 5)
    assert decode_varint(b"\xff" + struct.pack("<Q", 2**40)) == (2**40, 9)


def test_varint_noncanonical_width_is_preserved():
    # value 1 stored in 9 bytes: legal on disk, must round-trip bit-exactly
    raw = b"\xff" + struct.pack("<Q", 1)
    value, width = decode_varint(raw)
    assert (value, width) == (1, 9)
    assert encode_varint(value, width) == raw
    assert encode_varint(1) == b"\x01"


def test_varint_canonical_boundaries():
    for value, width in [
        (0, 1),
        (0xFC, 1),
        (0xFD, 3),
        (0xFFFF, 3),
        (0x10000, 5),
        (0xFFFFFFFF, 5),
        (0x100000000, 9),
    ]:
        enc = encode_varint(value)
        assert len(enc) == width
        assert decode_varint(enc) == (value, width)


def test_varint_roundtrip_sweep():
    rng = random.Random(1101)
    for _ in range(2000):
        value = rng.randrange(2 ** rng.choice([4, 8, 16, 24, 32, 48, 64]))
        enc = encode_varint(value)
        assert decode_varint(enc) == (value, len(enc))


def test_varint_truncated_payload():
    with pytest.raises(TruncationError):
        decode_varint(b"\xfd\x26")
    with pytest.raises(TruncationError):
        decode_varint(b"\xfe\x01\x02")
    with pytest.raises(TruncationError):
        decode_varint(b"")


def test_varint_width_too_small_rejected():
    with pytest.raises(EncodeError):
        encode_varint(0x10000, 3)
    with pytest.raises(EncodeError):
        encode_varint(0xFD, 1)
    with pytest.raises(EncodeError):
        encode_varint(-1)
    for width in (3, 5, 9):
        with pytest.raises(EncodeError):
            encode_varint(-1, width)
    with pytest.raises(EncodeError):
        encode_varint(2**64, 9)
    with pytest.raises(EncodeError):
        encode_varint(5, -1)


# ---------------------------------------------------------------------------
# transactions


def test_genesis_coinbase_decodes():
    raw = bytes.fromhex(GENESIS_COINBASE_HEX)
    tx, used = decode_transaction(raw)
    assert used == len(raw) == 204
    assert tx.version == 1
    assert tx.is_coinbase()
    assert len(tx.inputs) == 1
    assert len(tx.inputs[0].script) == 0x4D
    assert tx.inputs[0].sequence == 0xFFFFFFFF
    assert len(tx.outputs) == 1
    assert tx.outputs[0].value == 50 * 100_000_000
    assert len(tx.outputs[0].script) == 67
    assert tx.lock_time == 0
    assert not tx.has_witness_flag


def test_genesis_coinbase_txid():
    tx, _ = decode_transaction(bytes.fromhex(GENESIS_COINBASE_HEX))
    assert hash_hex(txid(tx)) == GENESIS_COINBASE_TXID


def test_genesis_coinbase_reencodes_identically():
    raw = bytes.fromhex(GENESIS_COINBASE_HEX)
    tx, _ = decode_transaction(raw)
    assert encode_transaction(tx) == raw


def _simple_tx(n_in=1, n_out=1, witness=False):
    inputs = [
        TxIn(OutPoint(bytes([i]) * 32, i), bytes([0x51]), 0xFFFFFFFF) for i in range(n_in)
    ]
    outputs = [TxOut(1000 + i, bytes([0x6A, 0x01, i])) for i in range(n_out)]
    stacks = [WitnessStack([b"\x01" * 3, b""]) for _ in range(n_in)] if witness else []
    return Transaction(2, inputs, outputs, 0, has_witness_flag=witness, witnesses=stacks)


def test_segwit_roundtrip_and_txid_ignores_witness():
    tx = _simple_tx(n_in=2, witness=True)
    raw = encode_transaction(tx)
    assert raw[4:6] == b"\x00\x01"
    back, used = decode_transaction(raw)
    assert used == len(raw)
    assert back.has_witness_flag
    assert [s.items for s in back.witnesses] == [s.items for s in tx.witnesses]
    assert encode_transaction(back) == raw

    stripped = _simple_tx(n_in=2, witness=False)
    assert txid(tx) == txid(stripped)
    assert len(encode_transaction(tx)) > len(encode_transaction(stripped))


def test_bad_witness_flag_rejected():
    raw = bytearray(encode_transaction(_simple_tx(witness=True)))
    raw[5] = 0x02
    with pytest.raises(DecodeError, match="flag"):
        decode_transaction(bytes(raw))


def test_zero_inputs_rejected():
    # version + marker-lookalike 0x00 count with a non-flag byte after it
    raw = struct.pack("<I", 1) + b"\x00\x00"
    with pytest.raises(DecodeError):
        decode_transaction(raw)


def test_zero_outputs_rejected():
    tx = _simple_tx()
    raw = encode_transaction(tx)
    # locate the output-count byte: 4 version + 1 count + 36 + 1 + 1 + 4
    mutated = bytearray(raw)
    mutated[4 + 1 + 36 + 1 + 1 + 4] = 0
    with pytest.raises(DecodeError, match="zero outputs"):
        decode_transaction(bytes(mutated))


def test_value_above_cap_rejected():
    tx = _simple_tx()
    tx.outputs[0].value = 21_000_000 * 100_000_000 + 1
    with pytest.raises(EncodeError):
        encode_transaction(tx)
    raw = encode_transaction(_simple_tx())
    mutated = bytearray(raw)
    value_at = 4 + 1 + 36 + 1 + 1 + 4 + 1
    mutated[value_at : value_at + 8] = struct.pack("<Q", 2**62)
    with pytest.raises(DecodeError, match="cap"):
        decode_transaction(bytes(mutated))


def test_truncated_transaction():
    raw = encode_transaction(_simple_tx())
    for cut in [2, 10, 40, len(raw) - 1]:
        with pytest.raises(TruncationError):
            decode_transaction(raw[:cut])


def test_noncanonical_script_len_roundtrips():
    tx = _simple_tx()
    tx.inputs[0].script_len_width = 3
    raw = encode_transaction(tx)
    assert b"\xfd\x01\x00" in raw
    back, _ = decode_transaction(raw)
    assert back.inputs[0].script_len_width == 3
    assert encode_transaction(back) == raw


# ---------------------------------------------------------------------------
# merkle


def _merkle_reference(leaves):
    # independent recursive construction, duplicating the odd tail node
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2:
        leaves = leaves + [leaves[-1]]
    return _merkle_reference(
        [dsha256(leaves[i] + leaves[i + 1]) for i in range(0, len(leaves), 2)]
    )


def test_merkle_single_leaf_is_root():
    leaf = dsha256(b"x")
    assert merkle_root([leaf]) == leaf


def test_merkle_two_and_three_leaves():
    a, b, c = (dsha256(bytes([i])) for i in range(3))
    assert merkle_root([a, b]) == dsha256(a + b)
    assert merkle_root([a, b, c]) == dsha256(dsha256(a + b) + dsha256(c + c))


def test_merkle_matches_reference_oracle():
    rng = random.Random(7)
    for n in range(1, 13):
        leaves = [hashlib.sha256(bytes([rng.randrange(256), n])).digest() for _ in range(n)]
        assert merkle_root(leaves) == _merkle_reference(leaves)


def test_merkle_levels_shape():
    leaves = [dsha256(bytes([i])) for i in range(5)]
    levels = merkle_levels(leaves)
    assert [len(lv) for lv in levels] == [5, 3, 2, 1]
    assert levels[-1][0] == merkle_root(leaves)


def test_merkle_empty_rejected():
    with pytest.raises(ValueError):
        merkle_root([])


# ---------------------------------------------------------------------------
# blocks and block files


def test_genesis_header_hash():
    raw = bytes.fromhex(GENESIS_HEADER_HEX)
    assert len(raw) == 80
    header = BlockHeader(*struct.unpack("<I32s32sIII", raw))
    assert header.encode() == raw
    assert hash_hex(header.block_hash()) == GENESIS_BLOCK_HASH
    # the genesis merkle root is the lone coinbase txid
    tx, _ = decode_transaction(bytes.fromhex(GENESIS_COINBASE_HEX))
    assert header.merkle_root == txid(tx)


def _make_block(txs, prev=bytes(32), nonce=0):
    header = BlockHeader(1, prev, merkle_root([txid(t) for t in txs]), 1231006505, 0x1D00FFFF, nonce)
    return Block(header, txs)


def _coinbase(tag, witness=False):
    inputs = [TxIn(OutPoint(bytes(32), 0xFFFFFFFF), bytes([0x01, tag]), 0xFFFFFFFF)]
    outputs = [TxOut(50 * 100_000_000, bytes([0x51, tag]))]
    stacks = [WitnessStack([bytes(32)])] if witness else []
    return Transaction(1, inputs, outputs, 0, has_witness_flag=witness, witnesses=stacks)


def test_block_roundtrip():
    block = _make_block([_coinbase(1), _simple_tx(n_in=2, n_out=3, witness=True)])
    raw = encode_block(block)
    back = decode_block(raw)
    assert back.block_hash() == block.block_hash()
    assert back.raw_size_bytes == len(raw)
    assert encode_block(back) == raw


def test_block_trailing_bytes_rejected():
    raw = encode_block(_make_block([_coinbase(1)]))
    with pytest.raises(DecodeError, match="trailing"):
        decode_block(raw + b"\x00")


def test_block_zero_txs_rejected():
    raw = encode_block(_make_block([_coinbase(1)]))
    mutated = bytearray(raw)
    mutated[80] = 0
    with pytest.raises(DecodeError, match="zero transactions"):
        decode_block(bytes(mutated[:81]))


def test_stream_reads_frames_at_offsets():
    b1 = encode_block(_make_block([_coinbase(1)]))
    b2 = encode_block(_make_block([_coinbase(2), _simple_tx()], nonce=9))
    stream = io.BytesIO(frame_block(b1) + frame_block(b2))
    out = list(read_block_stream(stream))
    assert len(out) == 2
    assert out[0][1] == 0
    assert out[1][1] == len(b1) + 8
    assert out[0][0].raw_size_bytes == len(b1)
    assert encode_block(out[1][0]) == b2


def test_stream_zero_padding_tolerated():
    b1 = encode_block(_make_block([_coinbase(1)]))
    for pad in [1, 4, 7, 4096, 5000]:
        stream = io.BytesIO(frame_block(b1) + bytes(pad))
        out = list(read_block_stream(stream))
        assert len(out) == 1


def test_stream_bad_magic():
    b1 = encode_block(_make_block([_coinbase(1)]))
    stream = io.BytesIO(b"\xde\xad\xbe\xef" + frame_block(b1))
    with pytest.raises(FramingError, match="magic"):
        list(read_block_stream(stream))


def test_stream_garbage_after_padding():
    b1 = encode_block(_make_block([_coinbase(1)]))
    stream = io.BytesIO(frame_block(b1) + bytes(100) + b"\x01")
    with pytest.raises(FramingError):
        list(read_block_stream(stream))


def test_stream_truncated_frame():
    b1 = encode_block(_make_block([_coinbase(1)]))
    framed = frame_block(b1)
    with pytest.raises(TruncationError):
        list(read_block_stream(io.BytesIO(framed[:-3])))
    with pytest.raises(TruncationError):
        list(read_block_stream(io.BytesIO(framed[:6])))


def test_stream_custom_magic():
    b1 = encode_block(_make_block([_coinbase(1)]))
    stream = io.BytesIO(frame_block(b1, magic=0x0B110907))
    assert len(list(read_block_stream(stream, magic=0x0B110907))) == 1
    stream.seek(0)
    with pytest.raises(FramingError):
        list(read_block_stream(stream))


def test_block_noncanonical_tx_count_roundtrips():
    block = _make_block([_coinbase(1)])
    block.tx_count_width = 3
    raw = encode_block(block)
    assert raw[80:83] == b"\xfd\x01\x00"
    back = decode_block(raw)
    assert back.tx_count_width == 3
    assert encode_block(back) == raw


def test_roundtrip_sweep_random_transactions():
    rng = random.Random(2202)
    for _ in range(200):
        n_in = rng.randint(1, 4)
        n_out = rng.randint(1, 4)
        witness = rng.random() < 0.5
        inputs = [
            TxIn(
                OutPoint(rng.randbytes(32), rng.randrange(2**32)),
                rng.randbytes(rng.randint(0, 300)),
                rng.randrange(2**32),
                script_len_width=rng.choice([0, 0, 0, 3, 5]),
            )
            for _ in range(n_in)
        ]
        outputs = [
            TxOut(rng.randrange(MAX := 21_000_000 * 100_000_000), rng.randbytes(rng.randint(0, 80)))
            for _ in range(n_out)
        ]
        stacks = (
            [
                WitnessStack([rng.randbytes(rng.randint(0, 72)) for _ in range(rng.randint(0, 3))])
                for _ in range(n_in)
            ]
            if witness
            else []
        )
        tx = Transaction(
            rng.choice([1, 2, 0x7FFFFFFF]),
            inputs,
            outputs,
            rng.choice([0, 500_000, 0xFFFFFFFF]),
            has_witness_flag=witness,
            witnesses=stacks,
        )
        raw = encode_transaction(tx)
        back, used = decode_transaction(raw)
        assert used == len(raw)
        assert encode_transaction(back) == raw
        assert txid(back) == txid(tx)
