"""``minimize_block`` serializes each transaction once.

One pass over the block gives the kept txs' bytes, every txid for the
co-path and, when the caller does not pass them, the raw block's bytes.
The txs of a ``tests/blockkit.py`` block are built, not decoded, so they
have no source bytes, and a spy on ``wire._serialize`` must count one
call per tx whichever record the block ends up with.
"""

import pytest
from blockkit import build_blocks, coinbase_tx, spend_tx

from ledgerpack import wire
from ledgerpack.strategies import minimize_block, verify_tx_in_minimized
from ledgerpack.wire import OutPoint, encode_block, encode_transaction


def _block(n):
    txs = [coinbase_tx(0)] + [spend_tx([OutPoint(bytes([i]) * 32, 0)]) for i in range(1, n)]
    return build_blocks([txs])[0]


@pytest.fixture
def calls(monkeypatch):
    counted = []
    serialize = wire._serialize

    def spy(tx, codec):
        counted.append(tx)
        return serialize(tx, codec)

    monkeypatch.setattr(wire, "_serialize", spy)
    return counted


@pytest.mark.parametrize("pass_raw", [False, True], ids=["no_raw", "raw"])
@pytest.mark.parametrize("kept, mode", [((2, 5), "copath"), (tuple(range(8)), "full")], ids=["copath", "full"])
def test_each_tx_is_serialized_once(calls, pass_raw, kept, mode):
    block = _block(8)
    assert all(tx.source is None for tx in block.transactions)
    raw = encode_block(block)
    expected = {pos: encode_transaction(block.transactions[pos]) for pos in kept}
    calls.clear()

    mb = minimize_block(block, [i in kept for i in range(8)], raw if pass_raw else None)

    position = {id(tx): i for i, tx in enumerate(block.transactions)}
    assert sorted(position[id(tx)] for tx in calls) == list(range(8))
    assert mb.mode == mode
    if mode == "copath":
        assert mb.kept == list(expected.items())
        assert all(verify_tx_in_minimized(mb, pos) for pos in kept)
    else:
        assert mb.raw_bytes == raw


def test_a_block_with_nothing_kept_serializes_nothing(calls):
    block = _block(8)
    calls.clear()
    mb = minimize_block(block, [False] * 8)
    assert mb.mode == "hash_only" and not calls
