import pytest
from blockkit import build_blocks, coinbase_tx, outpoint, spend_tx

from ledgerpack.chain import ChainIndex, build_chain, connect_block
from ledgerpack.errors import ContinuityError, UnknownInputError
from ledgerpack.wire import OutPoint, txid


def test_coinbase_only_block():
    blocks = build_blocks([[coinbase_tx(0, out_scripts=[b"\x51", b"\x52"])]])
    state = build_chain(blocks)
    assert state.spent_log == []
    assert len(state.utxos) == 2
    for entry in state.utxos.values():
        assert entry.creation_height == 0


def test_empty_iterator():
    state = build_chain([])
    assert state.index.spine == []
    assert state.utxos == {}
    assert state.spent_log == []


def test_spend_across_two_blocks_has_lifespan_two():
    cb0, cb1, cb2 = coinbase_tx(0), coinbase_tx(1), coinbase_tx(2)
    blocks = build_blocks([[cb0], [cb1], [cb2, spend_tx([outpoint(cb0)])]])
    state = build_chain(blocks)
    assert len(state.spent_log) == 1
    rec = state.spent_log[0]
    assert rec.outpoint == outpoint(cb0)
    assert (rec.creation_height, rec.spend_height, rec.lifespan) == (0, 2, 2)


def test_same_block_spend_has_lifespan_zero():
    cb0, cb1 = coinbase_tx(0), coinbase_tx(1)
    a = spend_tx([outpoint(cb0)], out_scripts=[b"\x53"])
    b = spend_tx([outpoint(a)], out_scripts=[b"\x54"])
    state = build_chain(build_blocks([[cb0], [cb1, a, b]]))
    lifespans = sorted(r.lifespan for r in state.spent_log)
    assert lifespans == [0, 1]
    assert outpoint(a) in {r.outpoint for r in state.spent_log}


def test_double_spend_in_one_block_rejected():
    cb0, cb1 = coinbase_tx(0), coinbase_tx(1)
    a = spend_tx([outpoint(cb0)], out_scripts=[b"\x53"])
    b = spend_tx([outpoint(cb0)], out_scripts=[b"\x54"])
    with pytest.raises(UnknownInputError, match="unknown outpoint"):
        build_chain(build_blocks([[cb0], [cb1, a, b]]))


def test_unknown_input_names_outpoint_and_height():
    cb0 = coinbase_tx(0)
    ghost = OutPoint(b"\xab" * 32, 3)
    blocks = build_blocks([[cb0], [coinbase_tx(1), spend_tx([ghost])]])
    with pytest.raises(UnknownInputError) as exc:
        build_chain(blocks)
    assert "height 1" in str(exc.value)
    assert ("ab" * 32)[:16] in str(exc.value)  # display form of the tx hash
    assert ":3" in str(exc.value)


def test_prev_hash_mismatch_rejected():
    blocks = build_blocks([[coinbase_tx(0)], [coinbase_tx(1)]])
    blocks[1].header = blocks[1].header.__class__(
        blocks[1].header.version,
        b"\xee" * 32,
        blocks[1].header.merkle_root,
        blocks[1].header.timestamp,
        blocks[1].header.bits,
        blocks[1].header.nonce,
    )
    with pytest.raises(ContinuityError, match="links to"):
        build_chain(blocks)


def test_height_must_extend_tip():
    blocks = build_blocks([[coinbase_tx(0)]])
    index = ChainIndex()
    with pytest.raises(ContinuityError):
        connect_block(index, {}, blocks[0], 1)


def test_locate_tx():
    cb0, cb1, cb2 = coinbase_tx(0), coinbase_tx(1), coinbase_tx(2)
    sp = spend_tx([outpoint(cb0)])
    state = build_chain(build_blocks([[cb0], [cb1], [cb2, sp]]))
    assert state.index.locator.get(txid(cb0)) == (0, 0)
    assert state.index.locator.get(txid(sp)) == (2, 1)
    assert state.index.locator.get(b"\x99" * 32) is None
    assert state.index.txid_at(2, 1) == txid(sp)
    assert state.index.txid_at(2, 5) is None
    assert state.index.txid_at(9, 0) is None


def test_conservation_created_minus_spent_is_set_size():
    cbs = [coinbase_tx(h, out_scripts=[b"\x51", b"\x52"]) for h in range(6)]
    tx_lists = [[cbs[0]], [cbs[1]], [cbs[2]]]
    tx_lists.append([cbs[3], spend_tx([outpoint(cbs[0], 0), outpoint(cbs[1], 1)], out_scripts=[b"\x55"])])
    tx_lists.append([cbs[4], spend_tx([outpoint(cbs[2], 0)], out_scripts=[b"\x56", b"\x57"])])
    tx_lists.append([cbs[5]])
    state = build_chain(build_blocks(tx_lists))
    created = 6 * 2 + 1 + 2
    spent = len(state.spent_log)
    assert spent == 3
    assert created - spent == len(state.utxos)


def test_fold_equivalence():
    cb0, cb1, cb2 = coinbase_tx(0), coinbase_tx(1), coinbase_tx(2)
    sp = spend_tx([outpoint(cb1)])
    blocks = build_blocks([[cb0], [cb1], [cb2, sp]])

    state = build_chain(blocks)

    index = ChainIndex()
    utxos = {}
    log = []
    for h, block in enumerate(blocks):
        log.extend(connect_block(index, utxos, block, h))
    assert utxos == state.utxos
    assert log == state.spent_log
    assert index.locator == state.index.locator
    assert [e.block_hash for e in index.spine] == [e.block_hash for e in state.index.spine]


def test_op_return_outputs_stay_in_the_utxo_set():
    cb0 = coinbase_tx(0, out_scripts=[b"\x51", b"\x6a\x01\x02", b"\x6a"])
    blocks = build_blocks([[cb0]])
    assert len(build_chain(blocks).utxos) == 3


def test_duplicate_txid_last_writer_wins():
    # two byte-identical coinbases (the historic duplicate-txid edge)
    dup_a, dup_b = coinbase_tx(7), coinbase_tx(7)
    assert txid(dup_a) == txid(dup_b)
    state = build_chain(build_blocks([[dup_a], [dup_b]]))
    assert state.index.duplicate_txids == 1
    assert state.index.locator.get(txid(dup_a)) == (1, 0)
    # the second insertion overwrites the outpoint entry
    assert len(state.utxos) == 1
    assert next(iter(state.utxos.values())).creation_height == 1


def test_spent_entry_removed_from_set():
    cb0, cb1 = coinbase_tx(0), coinbase_tx(1)
    sp = spend_tx([outpoint(cb0)])
    state = build_chain(build_blocks([[cb0], [cb1, sp]]))
    assert outpoint(cb0) not in state.utxos
    assert outpoint(sp) in state.utxos
