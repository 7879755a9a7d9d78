import io

import pytest
from blockkit import build_blocks, coinbase_tx, outpoint, spend_tx

from ledgerpack.chain import ChainState, build_chain
from ledgerpack.errors import ContinuityError, UnknownInputError
from ledgerpack.fixture import gen_chain
from ledgerpack.wire import OutPoint, block_links, encode_block, read_block_stream, txid

from test_golden import CHAINS


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


def test_locator_is_built_on_the_first_read_after_a_connect():
    """Connecting resets the locator, so a read after more blocks sees
    their txids and no entry that a later equal txid replaced; the
    incremental fold equals :func:`build_chain`."""
    dup_a, dup_b, cb2 = coinbase_tx(7), coinbase_tx(7), coinbase_tx(2)
    sp = spend_tx([outpoint(dup_b)])
    blocks = build_blocks([[dup_a], [dup_b], [cb2, sp]])
    state = ChainState()
    state.connect(blocks[0])
    first = state.index.locator
    assert first == {txid(dup_a): (0, 0)}
    assert state.index.locator is first  # no connect since: the same table
    for block in blocks[1:]:
        state.connect(block)
    assert state.index.locator == {txid(dup_b): (1, 0), txid(cb2): (2, 0), txid(sp): (2, 1)}
    assert first == {txid(dup_a): (0, 0)}  # a table read earlier is left as it was
    whole = build_chain(blocks)
    assert whole.index.locator == state.index.locator
    assert (whole.index.spine, whole.index.txids) == (state.index.spine, state.index.txids)
    assert (whole.utxos, whole.spent_log, whole.spends) == (state.utxos, state.spent_log, state.spends)
    assert state.index.spine == [block.block_hash() for block in blocks]


@pytest.fixture(scope="module")
def fixture_blocks():
    data, _ = gen_chain(CHAINS["heavy"])
    return [block for block, _ in read_block_stream(io.BytesIO(data))]


def test_spend_log_holds_the_utxo_sets_outpoints(fixture_blocks):
    """Each logged outpoint is the one the UTXO set held, whose tx hash is
    the txid the index keeps, not the decoded input's copy of it."""
    state = build_chain(fixture_blocks)
    assert state.spent_log
    for rec in state.spent_log:
        assert any(t is rec.outpoint.tx_hash for t in state.index.txids[rec.creation_height])


def test_spends_are_counted_the_same_without_a_log(fixture_blocks):
    logged, unlogged = ChainState(), ChainState(spent_log=None)
    for block in fixture_blocks:
        logged.connect(block)
        unlogged.connect(block)
    assert logged.spends == unlogged.spends == len(logged.spent_log) > 0
    assert unlogged.spent_log is None
    assert unlogged.utxos == logged.utxos


def test_a_walk_connects_as_its_decoded_block(fixture_blocks):
    """``connect_links`` over ``wire.block_links`` of each block's bytes
    gives the state ``connect`` of the decoded block gives, and its log
    holds the UTXO set's outpoints, not the walk's plain tuples."""
    decoded, walked = ChainState(), ChainState()
    for block in fixture_blocks:
        decoded.connect(block)
        walked.connect_links(*block_links(encode_block(block)))
    assert (walked.index.spine, walked.index.txids) == (decoded.index.spine, decoded.index.txids)
    assert (walked.utxos, walked.spent_log, walked.spends) == (decoded.utxos, decoded.spent_log, decoded.spends)
    assert walked.spent_log and {type(rec.outpoint) for rec in walked.spent_log} == {OutPoint}


def test_op_return_outputs_stay_in_the_utxo_set():
    cb0 = coinbase_tx(0, out_scripts=[b"\x51", b"\x6a\x01\x02", b"\x6a"])
    blocks = build_blocks([[cb0]])
    assert len(build_chain(blocks).utxos) == 3


def test_duplicate_txid_last_writer_wins():
    # two byte-identical coinbases (the historic duplicate-txid edge)
    dup_a, dup_b = coinbase_tx(7), coinbase_tx(7)
    assert txid(dup_a) == txid(dup_b)
    state = build_chain(build_blocks([[dup_a], [dup_b]]))
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
