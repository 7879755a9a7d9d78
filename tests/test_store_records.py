"""Store record choice on hand-built chains with same-block spends and
duplicate txids, which the fixture chains never produce.

A compact (slack) prevout may point at a tx by (height, position) only
where an ascending reader has already decoded that tx; these tests pin
that rule for same-block references and for the locator's last writer.
"""

import itertools

import pytest

from ledgerpack.chain import build_chain
from ledgerpack.store import (
    KIND_COMPACT,
    KIND_MINIMIZED,
    KIND_RAW,
    build_store_model,
    decode_store_content,
    integrity_check,
    read_store,
    write_store,
)
from ledgerpack.strategies import PruneConfig, StrategyConfig, deserialize_minimized
from ledgerpack.wire import encode_block, encode_transaction, txid

from blockkit import build_blocks, coinbase_tx, outpoint, spend_tx

# prune keeps heights 1 and 2 of the three-block chains below
ALL_CONFIGS = [
    StrategyConfig(
        prune=PruneConfig("blocks", blocks=1) if p else None,
        minimize=m,
        slack=s,
        dedup=d,
    )
    for p, m, s, d in itertools.product([0, 1], repeat=4)
]


def same_block_chain():
    """Height 1 spends inside itself: ``b`` and ``d`` spend ``a``, ``d``
    also spends ``b``.  Height 2 spends ``b`` and the ten fillers, so at
    height 1 only ``cb1``, ``a`` and ``d`` still carry UTXOs."""
    cb0 = coinbase_tx(0, out_scripts=[b"\x51"] * 11)
    a = spend_tx([outpoint(cb0, 0)], out_scripts=(b"\x51", b"\x52", b"\x53"))
    b = spend_tx([outpoint(a, 0)], out_scripts=(b"\x54", b"\x55"))
    d = spend_tx([outpoint(a, 1), outpoint(b, 1)])
    fillers = [spend_tx([outpoint(cb0, j)], out_scripts=(bytes([0x60 + j]),)) for j in range(1, 11)]
    spend = spend_tx([outpoint(b, 0)] + [outpoint(f) for f in fillers])
    blocks = build_blocks([[cb0], [coinbase_tx(1), a, b, d, *fillers], [coinbase_tx(2), spend]])
    return blocks, a, b


def duplicate_txid_chain():
    """Two byte-identical coinbases at heights 0 and 1; height 2 spends
    output 0 of that txid, and output 1 stays unspent."""
    dup = [coinbase_tx(7, out_scripts=[b"\x51", b"\x52"]) for _ in range(2)]
    blocks = build_blocks([[dup[0]], [dup[1]], [coinbase_tx(2), spend_tx([outpoint(dup[1], 0)])]])
    return blocks, dup[0]


def assert_round_trip(blocks, model, path):
    write_store(model, path)
    report = integrity_check(path)
    assert report.passed, (model.config.label(), report.failures)
    view = read_store(path)
    content = decode_store_content(view)
    for rec in view.bodies:
        block = blocks[rec.height]
        if rec.kind in (KIND_RAW, KIND_COMPACT):
            assert content.block_bytes[rec.height] == encode_block(block)
        else:
            for pos, tx_bytes in content.minimized[rec.height].kept:
                assert tx_bytes == encode_transaction(block.transactions[pos])
    return view


@pytest.mark.parametrize("chain", [same_block_chain, duplicate_txid_chain])
def test_every_strategy_combination_roundtrips(tmp_path, chain):
    blocks = chain()[0]
    state = build_chain(blocks)
    for n, config in enumerate(ALL_CONFIGS):
        model = build_store_model(blocks, state, config)
        assert_round_trip(blocks, model, str(tmp_path / f"store{n}"))


def test_minimized_slack_record_references_kept_txs_of_its_block(tmp_path):
    blocks, a, b = same_block_chain()
    model = build_store_model(blocks, config=StrategyConfig(minimize=True, slack=True))
    records = {rec.height: rec for rec in model.bodies}
    assert sorted(records) == [1, 2]  # every output of cb0 is spent

    rec = records[1]
    assert rec.kind == KIND_MINIMIZED and rec.payload[0] == 1  # kept txs in slack form
    block = blocks[1]
    mb = deserialize_minimized(rec.payload[1:], block.block_hash(), block.header.merkle_root)
    kept = dict(mb.kept)
    assert sorted(kept) == [0, 1, 3]
    # d's record: a (kept, position 1) by local reference, dropped b verbatim
    assert txid(a) not in kept[3]
    assert (1).to_bytes(4, "little") + (1).to_bytes(2, "little") in kept[3]
    assert txid(b) in kept[3]

    # local: d -> a.  verbatim: a -> cb0 (height 0 has no record), d -> b,
    # and height 2's spend of b and the ten fillers, none of them kept.
    assert model.slack_stats.prevout_local == 1
    assert model.slack_stats.prevout_verbatim == 13
    assert records[2].kind == KIND_COMPACT
    assert_round_trip(blocks, model, str(tmp_path / "store"))


def test_duplicate_txids_keep_both_copies_and_resolve_to_the_last_writer(tmp_path):
    blocks, dup = duplicate_txid_chain()
    state = build_chain(blocks)
    assert state.index.locator[txid(dup)] == (1, 0)

    minimized = build_store_model(blocks, state, StrategyConfig(minimize=True))
    assert [(r.height, r.kind) for r in minimized.bodies] == [(0, KIND_RAW), (1, KIND_RAW), (2, KIND_RAW)]

    # Height 0 is pruned, so only a reference through the locator's
    # entry at height 1 can be local; one through height 0 would be verbatim.
    config = StrategyConfig(prune=PruneConfig("blocks", blocks=1), slack=True)
    model = build_store_model(blocks, state, config)
    assert model.keep_from == 1
    assert model.slack_stats.prevout_local == 1
    assert model.slack_stats.prevout_verbatim == 0
    spender = model.bodies[-1]
    assert spender.height == 2 and spender.kind == KIND_COMPACT
    assert txid(dup) not in spender.payload
    assert_round_trip(blocks, model, str(tmp_path / "store"))
