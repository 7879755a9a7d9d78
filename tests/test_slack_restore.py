"""``slack_restore_tx``: the slack decoder that keeps a compact tx's wire bytes.

The store's reader restores compact records through it, so each
transaction's wire bytes and txid are sliced from the bytes rebuilt
while decoding rather than serialized again from its fields.  It must
decode exactly as the reference decoder in ``tests/reference_slack.py``
does, and the rebuilt bytes must be the serialization of the decoded
fields: equal wire bytes and txid, or the same error when the fields
cannot be encoded.  The inputs are the records of
``tests/test_slack_reference.py`` that its truncation test skips, cut at
every length, and seeded byte flips.
"""

import random

import pytest

from ledgerpack.strategies import slack_decode, slack_decode_tx, slack_encode, slack_restore_tx
from ledgerpack.wire import IDENTITY_CODEC, decode_transaction, encode_transaction
from test_slack_reference import (  # noqa: F401  (module fixtures)
    _compare_decode,
    _records,
    _resolver_for,
    corpus,
    locators,
    ref_codec,
)


def test_restore_matches_reference_at_every_truncation(corpus, locators):
    locator = locators["dict"]
    resolver = _resolver_for(locator)
    seen = {"ok": 0, "error": 0}
    records = _records(corpus, IDENTITY_CODEC, locator)
    for record in records[1::2]:
        framed = b"\x5a\xa5" + record
        for cut in range(len(framed) + 1):
            seen[_compare_decode(framed[:cut], 2, resolver, IDENTITY_CODEC, slack_restore_tx)] += 1
        seen[_compare_decode(framed + b"\x00", 2, resolver, IDENTITY_CODEC, slack_restore_tx)] += 1
    assert seen["ok"] >= len(records) // 2 and seen["error"] > seen["ok"], seen


@pytest.mark.parametrize("name", ["dict", "corpus"])
def test_restore_matches_reference_under_byte_flips(corpus, locators, name):
    rng = random.Random(f"restore-{name}")
    locator = locators[name]
    resolver = _resolver_for(locator)
    seen = {"ok": 0, "error": 0}
    for record in _records(corpus, IDENTITY_CODEC, locator):
        for _ in range(12):
            data = bytearray(record)
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
            seen[_compare_decode(bytes(data), 0, resolver, IDENTITY_CODEC, slack_restore_tx)] += 1
    assert seen["ok"] and seen["error"], seen


def test_only_restored_compact_txs_keep_wire_bytes(corpus, locators, ref_codec):
    locator = locators["dict"]
    table = _resolver_for(locator)
    restored = 0
    for tx in corpus:
        record = slack_encode(tx, locator)
        decoded, _ = slack_decode_tx(record, table)
        kept, _ = slack_restore_tx(record, table)
        if record[0] == 0x01:
            assert decoded.source is None
            assert kept.source == encode_transaction(tx)
            assert kept.witness_at == decode_transaction(kept.source)[0].witness_at
            restored += 1
        else:
            assert decoded.source == kept.source == encode_transaction(tx)
        assert slack_decode(record, table) == (encode_transaction(tx), len(record))
        # scripts read through another codec give no wire bytes to keep
        other, _ = slack_restore_tx(slack_encode(tx, locator, None, ref_codec), table, 0, ref_codec)
        assert other.source is None
    assert restored
