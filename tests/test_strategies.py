import random
from collections import Counter

import pytest
from blockkit import build_blocks, coinbase_tx, outpoint, spend_tx

from ledgerpack.analytics import LifespanCdf
from ledgerpack.errors import DecodeError, QuantileUnreachableError, StrategyError
from ledgerpack.strategies import (
    DedupPlan,
    MinimizedBlock,
    PruneConfig,
    RefScriptCodec,
    SlackStats,
    StrategyConfig,
    choose_prune_threshold,
    copath_coordinates,
    dedup_scripts,
    deserialize_minimized,
    minimize_block,
    prune_keep_from,
    reduction_percent,
    script_ref,
    serialize_minimized,
    slack_decode,
    slack_encode,
    verify_tx_in_minimized,
)
from ledgerpack.wire import (
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    WitnessStack,
    decode_transaction,
    encode_block,
    encode_transaction,
    txid,
)


# ---------------------------------------------------------------------------
# prune threshold


def _cdf(lifespans, unspent=0):
    return LifespanCdf(sorted(lifespans), unspent, (0, 0), 10**9)


def test_uniform_1_to_100_p90_is_90():
    assert choose_prune_threshold(_cdf(range(1, 101)), 0.9) == 90


def test_threshold_matches_brute_force_scan():
    rng = random.Random(2024)
    for _ in range(100):
        lifespans = [rng.randint(0, 50) for _ in range(rng.randint(1, 80))]
        unspent = rng.randint(0, 20)
        total = len(lifespans) + unspent
        p = rng.choice([0.1, 0.5, 0.9, 0.95, rng.random() or 0.5])
        expect = None
        for candidate in sorted(set(lifespans)):
            if sum(1 for x in lifespans if x <= candidate) / total >= p:
                expect = candidate
                break
        cdf = _cdf(lifespans, unspent)
        if expect is None:
            assert p > len(lifespans) / total or not lifespans
            with pytest.raises(QuantileUnreachableError):
                choose_prune_threshold(cdf, p)
        else:
            assert choose_prune_threshold(cdf, p) == max(1, expect)


def test_all_dormant_unreachable_advises_explicit_mode():
    with pytest.raises(QuantileUnreachableError, match="prune-blocks"):
        choose_prune_threshold(_cdf([], unspent=10), 0.1)


def test_unreachable_exactly_when_p_exceeds_spent_fraction():
    cdf = _cdf([1, 2, 3], unspent=7)  # CDF(inf) = 0.3
    assert choose_prune_threshold(cdf, 0.3) == 3
    with pytest.raises(QuantileUnreachableError):
        choose_prune_threshold(cdf, 0.30001)


def test_prune_config_validation():
    with pytest.raises(StrategyError):
        PruneConfig("blocks", blocks=0)
    with pytest.raises(StrategyError):
        PruneConfig("quantile", quantile=0.0)
    with pytest.raises(StrategyError):
        PruneConfig("quantile", quantile=1.5)
    with pytest.raises(StrategyError):
        PruneConfig("percent")
    assert PruneConfig("blocks", blocks=5).resolve(None) == 5
    assert PruneConfig("quantile", quantile=0.9).resolve(_cdf(range(1, 101))) == 90


def test_prune_keep_from_hand_counts():
    # tip 10, threshold 3: bodies for 7..10, spine-only for 0..6
    assert prune_keep_from(10, 3) == 7
    assert prune_keep_from(10, 10) == 0
    assert prune_keep_from(10, 11) == 0  # longer than the chain: keep everything
    assert prune_keep_from(10, 1) == 9


# ---------------------------------------------------------------------------
# minimize


def brute_copath(n_leaves, positions):
    # independent walk: derive the sibling through the parent's children
    sizes = []
    m = n_leaves
    while m > 1:
        sizes.append(m)
        m = (m + 1) // 2
    need = set()
    for pos in positions:
        i = pos
        for level, size in enumerate(sizes):
            parent = i // 2
            left, right = 2 * parent, 2 * parent + 1
            sib = right if i == left else left
            if sib < size:
                need.add((level, sib))
            i = parent
    return need


def _block_with_n(n, witness_some=False):
    txs = [coinbase_tx(0)]
    for i in range(1, n):
        txs.append(
            spend_tx(
                [OutPoint(bytes([i]) * 32, i)],
                out_scripts=[bytes([0x51, i])],
                witness=witness_some and i % 3 == 0,
            )
        )
    return build_blocks([txs])[0]


def test_copath_union_matches_brute_force():
    rng = random.Random(5)
    for n in range(1, 17):
        block_positions = list(range(n))
        # exhaustive for tiny n, sampled beyond
        if n <= 6:
            subsets = [
                [i for i in block_positions if mask >> i & 1] for mask in range(1, 2**n)
            ]
        else:
            subsets = [
                sorted(rng.sample(block_positions, rng.randint(1, n))) for _ in range(40)
            ]
        for kept in subsets:
            assert copath_coordinates(n, kept) == brute_copath(n, kept)


def test_copath_node_counts_hand_cases():
    assert len(copath_coordinates(8, [0])) == 3
    assert len(copath_coordinates(1, [0])) == 0
    # keeping everything needs every sibling in the tree
    assert len(copath_coordinates(8, range(8))) == 8 + 4 + 2


def test_minimize_all_spent_is_hash_only():
    block = _block_with_n(1)
    mb = minimize_block(block, [False])
    assert mb.mode == "hash_only"
    assert mb.retained_bytes == 32
    assert mb.block_hash == block.block_hash()


def test_minimize_single_kept_of_eight():
    block = _block_with_n(8)
    mb = minimize_block(block, [i == 2 for i in range(8)])
    assert mb.mode == "copath"
    assert len(mb.nodes) == 3
    assert [pos for pos, _ in mb.kept] == [2]
    assert mb.retained_bytes < len(encode_block(block))
    assert verify_tx_in_minimized(mb, 2)


def test_minimize_all_kept_of_eight_falls_back_to_full():
    block = _block_with_n(8)
    mb = minimize_block(block, [True] * 8)
    assert mb.mode == "full"
    assert mb.retained_bytes == len(encode_block(block))
    assert mb.raw_bytes == encode_block(block)


def test_minimize_flag_length_mismatch():
    block = _block_with_n(3)
    with pytest.raises(StrategyError, match="flags"):
        minimize_block(block, [True, False])


def test_minimize_copath_verifies_every_kept_tx():
    rng = random.Random(9)
    for n in [2, 3, 5, 7, 12]:
        block = _block_with_n(n, witness_some=True)
        kept = sorted(rng.sample(range(n), max(1, n // 3)))
        mb = minimize_block(block, [i in kept for i in range(n)])
        if mb.mode != "copath":
            continue
        for pos in kept:
            assert verify_tx_in_minimized(mb, pos), (n, kept, pos)


def test_minimize_tamper_detection():
    block = _block_with_n(8)
    mb = minimize_block(block, [i in (1, 5) for i in range(8)])
    assert mb.mode == "copath"

    pos, raw = mb.kept[0]
    for at in [0, len(raw) // 2, len(raw) - 1]:
        bad = bytearray(raw)
        bad[at] ^= 0x01
        mb.kept[0] = (pos, bytes(bad))
        assert not verify_tx_in_minimized(mb, pos)
    mb.kept[0] = (pos, raw)
    assert verify_tx_in_minimized(mb, pos)

    coord = next(iter(mb.nodes))
    saved = mb.nodes[coord]
    mb.nodes[coord] = b"\x00" * 32
    assert not any(verify_tx_in_minimized(mb, p) for p, _ in mb.kept if coord in copath_coordinates(8, [p]))
    mb.nodes[coord] = saved


def test_minimize_position_not_kept_is_error():
    block = _block_with_n(4)
    mb = minimize_block(block, [True, False, True, False])
    with pytest.raises(StrategyError, match="not kept"):
        verify_tx_in_minimized(mb, 1)
    with pytest.raises(StrategyError, match="copath"):
        verify_tx_in_minimized(MinimizedBlock(b"\x00" * 32, b"\x00" * 32, "hash_only", 4), 0)


def test_minimized_serialization_roundtrip():
    block = _block_with_n(6, witness_some=True)
    mb = minimize_block(block, [i in (0, 4) for i in range(6)])
    payload = serialize_minimized(mb)
    assert len(payload) == mb.retained_bytes
    back = deserialize_minimized(payload, mb.block_hash, mb.merkle_root)
    assert back.n_leaves == mb.n_leaves
    assert back.kept == mb.kept
    assert back.nodes == mb.nodes
    for pos, _ in back.kept:
        assert verify_tx_in_minimized(back, pos)


def test_minimize_odd_tail_duplicate_needs_no_node():
    block = _block_with_n(3)
    mb = minimize_block(block, [False, False, True])
    assert mb.mode == "copath"
    # leaf 2 duplicates itself at level 0; only the level-1 sibling is stored
    assert set(mb.nodes) == {(1, 0)}
    assert verify_tx_in_minimized(mb, 2)


# ---------------------------------------------------------------------------
# slack


def test_slack_field_sum_oracle():
    prev_txid = b"\x42" * 32
    tx = Transaction(
        1,
        [TxIn(OutPoint(prev_txid, 0), b"\xaa" * 25, 0xFFFFFFFF)],
        [TxOut(1000, b"\xbb" * 22), TxOut(300_000, b"\xcc" * 23)],
        0,
    )
    original = encode_transaction(tx)
    assert len(original) == 4 + 1 + (36 + 1 + 25 + 4) + 1 + (8 + 1 + 22) + (8 + 1 + 23) + 4

    stats = SlackStats()
    out = slack_encode(tx, {prev_txid: (12, 3)}, stats)
    # independent field sum: tag, counts, 1-byte bitmap, local prevout
    # (4+2+1), script (1+25), values as varints (3 and 5), out scripts
    expect = 1 + (1 + 1 + 1) + (4 + 2 + 1) + (1 + 25) + (3 + 1 + 22) + (5 + 1 + 23)
    assert out[0] == 0x01
    assert len(out) == expect
    assert stats.prevout_local == 1 and stats.compact == 1

    raw, used = slack_decode(out, {(12, 3): prev_txid})
    assert used == len(out)
    assert raw == original


def test_slack_prevout_36_to_7_bytes():
    prev_txid = b"\x07" * 32
    base = Transaction(1, [TxIn(OutPoint(prev_txid, 0), b"", 0xFFFFFFFF)], [TxOut(1, b"")], 0)
    with_locator = slack_encode(base, {prev_txid: (1, 1)})
    without = slack_encode(base, {})
    assert len(without) - len(with_locator) == 36 - 7


def test_slack_coinbase_roundtrip():
    tx = coinbase_tx(5)
    out = slack_encode(tx, {})
    raw, _ = slack_decode(out, {})
    assert raw == encode_transaction(tx)
    assert out[0] == 0x01  # null prevout squeezes to a tag regardless of locator


def test_slack_foreign_prevout_verbatim():
    tx = spend_tx([OutPoint(b"\x99" * 32, 7)])
    stats = SlackStats()
    out = slack_encode(tx, {}, stats)
    assert stats.prevout_verbatim == 1
    raw, _ = slack_decode(out, {})
    assert raw == encode_transaction(tx)


def test_slack_every_escape_path_roundtrips():
    prev = b"\x21" * 32
    locator = {prev: (9, 2)}
    resolver = {(9, 2): prev}
    cases = [
        Transaction(3, [TxIn(OutPoint(prev, 1), b"\x01", 5)], [TxOut(7, b"")], 0),  # version+seq
        Transaction(1, [TxIn(OutPoint(prev, 0), b"", 0xFFFFFFFF)], [TxOut(0, b"")], 99),  # locktime
        Transaction(2, [TxIn(OutPoint(prev, 0), b"", 0xFFFFFFFF)], [TxOut(1 << 33, b"")], 0),  # big value
        Transaction(  # witness + non-canonical widths
            2,
            [TxIn(OutPoint(prev, 2), b"\x51", 0xFFFFFFFF, script_len_width=3)],
            [TxOut(50, b"\x52\x53", script_len_width=5)],
            0,
            has_witness_flag=True,
            witnesses=[WitnessStack([b"", b"\x0a" * 40], count_width=3, item_widths=[0, 3])],
            input_count_width=3,
            output_count_width=3,
        ),
        Transaction(0x7FFFFFFF, [TxIn(OutPoint(bytes(32), 0xFFFFFFFF), b"\x00", 0)], [TxOut(0, b"")], 2**32 - 1),
    ]
    for tx in cases:
        out = slack_encode(tx, locator)
        raw, used = slack_decode(out, resolver)
        assert used == len(out)
        assert raw == encode_transaction(tx)


def test_slack_big_tx_index_falls_back():
    prev = b"\x33" * 32
    stats = SlackStats()
    tx = spend_tx([OutPoint(prev, 0)])
    out = slack_encode(tx, {prev: (4, 70_000)}, stats)
    assert stats.prevout_bigindex_fallback == 1
    assert stats.prevout_local == 0
    raw, _ = slack_decode(out, {})
    assert raw == encode_transaction(tx)


def test_slack_unresolvable_position_is_decode_error():
    prev = b"\x55" * 32
    tx = spend_tx([OutPoint(prev, 0)])
    out = slack_encode(tx, {prev: (3, 1)})
    assert out[0] == 0x01
    with pytest.raises(DecodeError, match="unknown position"):
        slack_decode(out, {(0, 0): b"\x00" * 32})
    with pytest.raises(DecodeError):
        slack_decode(out, None)


def test_slack_unknown_tag_rejected():
    with pytest.raises(DecodeError, match="tag"):
        slack_decode(b"\x07\x01\x02", {})
    with pytest.raises(DecodeError):
        slack_decode(b"", {})


def test_slack_passthrough_never_grows_much():
    # a tx that cannot be squeezed: foreign prevout, all fields escaping
    tx = Transaction(
        9, [TxIn(OutPoint(b"\xee" * 32, 4), b"", 5)], [TxOut(2**40, b"")], 77
    )
    out = slack_encode(tx, {})
    original = encode_transaction(tx)
    assert len(out) <= len(original) + 1
    raw, _ = slack_decode(out, {})
    assert raw == original


def test_slack_stats_accounting():
    prev = b"\x10" * 32
    stats = SlackStats()
    txs = [coinbase_tx(1), spend_tx([OutPoint(prev, 0)]), spend_tx([OutPoint(prev, 1)])]
    blobs = [slack_encode(t, {prev: (0, 0)}, stats) for t in txs]
    assert stats.txs == 3
    assert stats.passthrough + stats.compact == 3
    assert stats.bytes_out == sum(len(b) for b in blobs)
    assert stats.bytes_in == sum(len(encode_transaction(t)) for t in txs)


# ---------------------------------------------------------------------------
# dedup


def test_dedup_savings_arithmetic_four_copies():
    script = bytes(range(25))
    plan = dedup_scripts(Counter({script: 4}))
    assert plan.rewritten_scripts == 1
    assert plan.kvs == {script_ref(script): script}
    assert plan.rewrite == {script}


def test_dedup_unique_scripts_do_nothing():
    plan = dedup_scripts(Counter({b"\x01" * 30: 1, b"\x02" * 40: 1}))
    assert plan.rewritten_scripts == 0
    assert plan.kvs == {}


def test_dedup_short_scripts_stay_inline():
    plan = dedup_scripts(Counter({b"\x01" * 8: 100}))
    assert plan.rewritten_scripts == 0
    # 9 bytes repeated 10 times: 9*9=81 > 80, barely worth it
    plan = dedup_scripts(Counter({b"\x02" * 9: 10}))
    assert plan.rewritten_scripts == 1
    plan = dedup_scripts(Counter({b"\x03" * 9: 2}))
    assert plan.rewritten_scripts == 0


def test_dedup_from_blocks_pools_both_sides():
    # 16 bytes at 3 sites saves 48 - (16 + 24) = 8; at either side's 2 sites it saves nothing
    s = b"\xab" * 16
    cb = coinbase_tx(0, out_scripts=[s, s])
    t = spend_tx([outpoint(cb, 0)], out_scripts=[b"\x01"], in_script=s)
    blocks = build_blocks([[cb], [coinbase_tx(1), t]])
    plan = dedup_scripts(blocks)
    assert s in plan.rewrite
    assert s not in dedup_scripts(Counter({s: 2})).rewrite


def test_ref_codec_roundtrips_bit_exactly():
    s = b"\xcd" * 30
    plan = DedupPlan(kvs={script_ref(s): s}, rewrite={s})
    codec = RefScriptCodec(plan.kvs)
    tx = Transaction(
        2,
        [TxIn(OutPoint(b"\x01" * 32, 0), s, 0xFFFFFFFF, script_len_width=3)],
        [TxOut(5, s), TxOut(6, b"\x99" * 10, script_len_width=3)],
        0,
        has_witness_flag=True,
        witnesses=[WitnessStack([s, b"\x42"])],
    )
    stored = encode_transaction(tx, codec)
    plain = encode_transaction(tx)
    # rewritten sites shrink from varint+30 bytes to tag+ref (9); the two
    # inline fields each pay a 1-byte tag
    assert len(stored) == len(plain) - (33 - 9) - (31 - 9) - (31 - 9) + 2
    back, used = decode_transaction(stored, 0, codec)
    assert used == len(stored)
    assert encode_transaction(back) == plain

    out = slack_encode(tx, {b"\x01" * 32: (2, 2)}, codec=codec)
    raw, _ = slack_decode(out, {(2, 2): b"\x01" * 32}, codec=codec)
    assert raw == plain


def test_ref_codec_missing_ref_and_bad_token():
    codec = RefScriptCodec({})
    with pytest.raises(DecodeError, match="not in KVS"):
        codec.decode(b"\x01" + b"\x00" * 8, 0)
    with pytest.raises(DecodeError, match="token"):
        codec.decode(b"\x09" + b"\x00" * 8, 0)


# ---------------------------------------------------------------------------
# report arithmetic


def test_reduction_percent_table_rows():
    assert abs(reduction_percent(371.4, 15.2) - 95.90) < 0.1
    assert abs(reduction_percent(371.4, 51.20) - 86.22) < 0.1
    assert reduction_percent(0, 0) == 0.0
    assert reduction_percent(100, 100) == 0.0
    assert reduction_percent(100, 0) == 100.0


def test_strategy_config_labels():
    assert StrategyConfig().label() == "baseline"
    cfg = StrategyConfig(prune=PruneConfig("blocks", blocks=3), minimize=True, slack=True, dedup=True)
    assert cfg.label() == "prune+minimize+slack+dedup"
