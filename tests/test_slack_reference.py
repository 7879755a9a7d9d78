"""The inlined SLACK codec against the codec it replaced.

``tests/reference_slack.py`` keeps the previous ``slack_encode`` and
``slack_decode_tx`` verbatim.  Over a transaction corpus, built and
decoded from wire bytes, through the identity codec and through
``RefScriptCodec``, with seeded locators that make prevouts local,
verbatim, coinbase and big-index fallbacks, both encoders must give the
same record and the same ``SlackStats`` or raise the same error.  Both
decoders must give equal transactions (fields, varint widths and bytes
consumed) or raise the same exception class with the same message,
offset and field, on every record cut at every length and under seeded
byte flips.
"""

import random

import pytest

import reference_slack as ref
from ledgerpack.chain import build_chain
from ledgerpack.fixture import ChainPlan, gen_chain, gen_tx_corpus
from ledgerpack.strategies import RefScriptCodec, SlackStats, script_ref, slack_decode, slack_decode_tx, slack_encode
from ledgerpack.wire import (
    IDENTITY_CODEC,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    WitnessStack,
    decode_transaction,
    encode_transaction,
    read_block_stream,
    txid,
)

FLIPS_PER_RECORD = 12


def _outcome(fn, *args):
    try:
        return None, fn(*args)
    except Exception as exc:  # the class is part of what is compared
        return exc, None


def _assert_same_error(got, want):
    assert type(got) is type(want), (got, want)
    assert str(got) == str(want)
    assert getattr(got, "offset", None) == getattr(want, "offset", None)
    assert getattr(got, "field", None) == getattr(want, "field", None)


def _widths(tx):
    return (
        tx.input_count_width,
        tx.output_count_width,
        [txin.script_len_width for txin in tx.inputs],
        [txout.script_len_width for txout in tx.outputs],
        [(stack.count_width, stack.item_widths) for stack in tx.witnesses],
    )


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


def _passthrough():
    """Txs whose compact form is not shorter, so the record is passthrough."""
    prevout = OutPoint(b"\x0a" * 32, 7)
    return [
        Transaction(3, [TxIn(prevout, b"\x51", 5)], [TxOut(1 << 33, b"\x6a" * 3)], 9),
        Transaction(
            0x7FFFFFFF,
            [TxIn(prevout, b"", 0), TxIn(OutPoint(b"\x0b" * 32, 1), b"\x52" * 30, 1, script_len_width=3)],
            [TxOut(1 << 40, b""), TxOut(1 << 34, b"\x53" * 25)],
            500_000,
        ),
    ]


def _unencodable():
    """Txs whose fields cannot be written: both encoders must raise alike."""
    prevout = OutPoint(b"\x09" * 32, 0)
    return [
        Transaction(1, [TxIn(prevout, b"\x51" * 300, 0, script_len_width=1)], [TxOut(1, b"")], 0),
        Transaction(1, [TxIn(prevout, b"", 0)], [TxOut(1, b"", script_len_width=2)], 0),
        Transaction(1, [TxIn(prevout, b"", 0)], [TxOut(-1, b"")], 0),
        Transaction(1, [TxIn(prevout, b"", 0)], [], 0),
        Transaction(1, [TxIn(prevout, b"", 0)], [TxOut(1, b"")], 0, has_witness_flag=True),
        Transaction(1, [TxIn(prevout, b"", 0)], [TxOut(1, b"")], 0, input_count_width=2),
    ]


def _seeded_locator(txs, rng):
    """txid -> (height, index) for about two thirds of all prevouts: local
    positions, and indexes of 0x10000 and above that must fall back to
    verbatim.  Positions are unique, so the inverse is a resolver."""
    locator = {}
    used = set()
    for tx in txs:
        for txin in tx.inputs:
            h = txin.previous_output.tx_hash
            if h in locator or txin.previous_output.is_coinbase() or rng.random() < 0.33:
                continue
            while True:
                index = rng.randrange(0x10000, 0x20000) if rng.random() < 0.15 else rng.randrange(0, 0x10000)
                pos = (rng.randrange(0, 1 << 32), index)
                if pos not in used:
                    break
            used.add(pos)
            locator[h] = pos
    return locator


@pytest.fixture(scope="module")
def corpus():
    built = gen_tx_corpus(5505, 160).transactions + _nine_byte_widths() + _passthrough()
    # decoded twins carry source bytes, which the identity codec slices
    decoded = [decode_transaction(encode_transaction(tx))[0] for tx in built]
    assert all(tx.source is not None for tx in decoded)
    return built + decoded


@pytest.fixture(scope="module")
def ref_codec(corpus):
    scripts = {txout.script for tx in corpus for txout in tx.outputs if len(txout.script) > 8}
    scripts |= {txin.script for tx in corpus for txin in tx.inputs if len(txin.script) > 8}
    # every other script goes behind a reference; the rest stay inline
    return RefScriptCodec({script_ref(s): s for s in sorted(scripts)[::2]})


@pytest.fixture(scope="module")
def locators(corpus):
    rng = random.Random(5506)
    # the hand-built passthrough txs stay unlocated, so they stay passthrough
    table = _seeded_locator(gen_tx_corpus(5505, 160).transactions, rng)
    return {"none": None, "dict": table, "callable": table.get, "corpus": gen_tx_corpus(5505, 160).locator}


def _codec(name, ref_codec):
    return IDENTITY_CODEC if name == "identity" else ref_codec


def _resolver_for(locator):
    if locator is None:
        return None
    table = locator if isinstance(locator, dict) else locator.__self__
    return {pos: h for h, pos in table.items()}


@pytest.mark.parametrize("codec_name", ["identity", "ref"])
def test_encoder_matches_reference(corpus, ref_codec, locators, codec_name):
    codec = _codec(codec_name, ref_codec)
    for name, locator in locators.items():
        got_stats, want_stats = SlackStats(), SlackStats()
        for tx in corpus + _unencodable():
            got_exc, got = _outcome(slack_encode, tx, locator, got_stats, codec)
            want_exc, want = _outcome(ref.slack_encode, tx, locator, want_stats, codec)
            if want_exc is not None or got_exc is not None:
                _assert_same_error(got_exc, want_exc)
            else:
                assert got == want, (name, tx)
            assert got_stats == want_stats, (name, tx)
        if name != "none":
            # every prevout kind and both record forms occur
            assert got_stats.passthrough and got_stats.compact, (name, got_stats)
            assert got_stats.prevout_local and got_stats.prevout_verbatim and got_stats.prevout_coinbase
    assert got_stats.prevout_bigindex_fallback
    assert got_stats.version_escapes and got_stats.locktime_escapes and got_stats.sequence_escapes


def test_encoder_without_stats_matches_reference(corpus, ref_codec, locators):
    for codec in (IDENTITY_CODEC, ref_codec):
        for tx in corpus:
            assert slack_encode(tx, locators["dict"], None, codec) == ref.slack_encode(tx, locators["dict"], None, codec)
            assert slack_encode(tx) == ref.slack_encode(tx)


def _records(corpus, codec, locator):
    """Distinct records: a built tx and its decoded twin give the same one."""
    return list(dict.fromkeys(ref.slack_encode(tx, locator, None, codec) for tx in corpus))


def _compare_decode(data, offset, resolver, codec, decode=slack_decode_tx):
    """Compare one decode with the reference.  Through either codec the
    decoded tx's wire bytes and txid must equal those of the reference
    tx, and an unencodable tx must raise alike."""
    got_exc, got = _outcome(decode, data, resolver, offset, codec)
    want_exc, want = _outcome(ref.slack_decode_tx, data, resolver, offset, codec)
    if want_exc is not None or got_exc is not None:
        _assert_same_error(got_exc, want_exc)
        return "error"
    assert got[1] == want[1]
    assert got[0] == want[0]
    assert _widths(got[0]) == _widths(want[0])
    for encode in (encode_transaction, txid):
        got_exc, got_raw = _outcome(encode, got[0])
        want_exc, want_raw = _outcome(encode, want[0])
        if want_exc is not None or got_exc is not None:
            _assert_same_error(got_exc, want_exc)
        assert got_raw == want_raw
    return "ok"


@pytest.mark.parametrize("codec_name", ["identity", "ref"])
def test_decoder_matches_reference_at_every_truncation(corpus, ref_codec, locators, codec_name):
    codec = _codec(codec_name, ref_codec)
    locator = locators["dict"]
    resolver = _resolver_for(locator)
    seen = {"ok": 0, "error": 0}
    records = _records(corpus, codec, locator)
    for record in records[::2]:
        # decode from inside a larger buffer, so error offsets are absolute
        framed = b"\x5a\xa5" + record
        for cut in range(len(framed) + 1):
            seen[_compare_decode(framed[:cut], 2, resolver, codec)] += 1
        seen[_compare_decode(framed + b"\x00", 2, resolver, codec)] += 1
    assert seen["ok"] >= len(records) // 2 and seen["error"] > seen["ok"], seen


@pytest.mark.parametrize("codec_name", ["identity", "ref"])
def test_decoder_matches_reference_under_byte_flips(corpus, ref_codec, locators, codec_name):
    codec = _codec(codec_name, ref_codec)
    rng = random.Random(5507)
    seen = {"ok": 0, "error": 0}
    for name in ("dict", "corpus"):
        locator = locators[name]
        resolver = _resolver_for(locator)
        for record in _records(corpus, codec, locator):
            for _ in range(FLIPS_PER_RECORD):
                data = bytearray(record)
                for _ in range(rng.randint(1, 3)):
                    data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
                seen[_compare_decode(bytes(data), 0, resolver, codec)] += 1
    assert seen["ok"] and seen["error"], seen


def test_decoder_resolver_shapes_match_reference(corpus, locators):
    locator = locators["dict"]
    table = _resolver_for(locator)
    for record in _records(corpus, IDENTITY_CODEC, locator):
        for resolver in (None, table, lambda h, i: table.get((h, i)), {}):
            _compare_decode(record, 0, resolver, IDENTITY_CODEC)
        for view in (bytearray(record), memoryview(record)):
            _compare_decode(view, 0, table, IDENTITY_CODEC)


def test_chain_index_locator_matches_reference():
    data, _ = gen_chain(ChainPlan(seed=5508, n_blocks=30, txs_per_block=6, segwit_fraction=0.5, noncanonical_rate=0.2))
    import io

    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    state = build_chain(blocks)
    got_stats, want_stats = SlackStats(), SlackStats()
    for block in blocks:
        for tx in block.transactions:
            record = slack_encode(tx, state.index, got_stats)
            assert record == ref.slack_encode(tx, state.index, want_stats)
            raw, used = slack_decode(record, state.index)
            assert (raw, used) == (encode_transaction(tx), len(record))
            assert slack_decode_tx(record, state.index)[0] == ref.slack_decode_tx(record, state.index)[0]
    assert got_stats == want_stats
    assert got_stats.prevout_local and got_stats.prevout_coinbase and got_stats.compact

