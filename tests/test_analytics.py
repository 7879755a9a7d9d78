import random
from collections import Counter

import pytest
from blockkit import build_blocks, coinbase_tx, outpoint, spend_tx

from ledgerpack.analytics import (
    CompositionBreakdown,
    LifespanCdf,
    composition_breakdown,
    dormancy_stats,
    lifespan_cdf,
    percentile,
    script_dedup_stats,
)
from ledgerpack.chain import SpentRecord, UtxoEntry, build_chain
from ledgerpack.errors import AnalyticsError
from ledgerpack.wire import OutPoint, Transaction, TxIn, TxOut, WitnessStack, encode_block, encode_transaction


def make_log(pairs):
    return [
        SpentRecord(OutPoint(i.to_bytes(32, "big"), 0), c, s) for i, (c, s) in enumerate(pairs)
    ]


def make_utxos(heights):
    return {
        OutPoint(bytes([9]) * 31 + bytes([i]), 0): UtxoEntry(OutPoint(bytes([9]) * 31 + bytes([i]), 0), h)
        for i, h in enumerate(heights)
    }


def brute_percentile(lifespans, unspent, p):
    total = len(lifespans) + unspent
    if total == 0:
        return None
    for lifespan in sorted(set(lifespans)):
        if sum(1 for x in lifespans if x <= lifespan) / total >= p:
            return lifespan
    return None


# ---------------------------------------------------------------------------
# lifespan CDF and percentiles


def test_percentile_hand_cases():
    cdf = LifespanCdf(sorted([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 0, (0, 0), 10)
    assert percentile(cdf, 0.5) == 5
    cdf = LifespanCdf(sorted([1, 1, 1, 9]), 0, (0, 0), 9)
    assert percentile(cdf, 0.75) == 1
    cdf = LifespanCdf([5], 0, (0, 0), 5)
    assert percentile(cdf, 1.0) == 5
    cdf = LifespanCdf([1, 2, 3], 7, (0, 0), 10)
    assert percentile(cdf, 0.5) is None  # CDF(inf) = 0.3


def test_percentile_uniform_1_to_100():
    cdf = LifespanCdf(list(range(1, 101)), 0, (0, 0), 101)
    assert percentile(cdf, 0.9) == 90
    assert percentile(cdf, 0.5) == 50
    assert percentile(cdf, 0.01) == 1
    assert percentile(cdf, 1.0) == 100


def test_percentile_matches_brute_force_on_random_multisets():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(1, 60)
        lifespans = sorted(rng.randint(0, 20) for _ in range(n))
        unspent = rng.randint(0, 10)
        cdf = LifespanCdf(lifespans, unspent, (0, 0), 100)
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0, rng.random() or 0.5]:
            assert percentile(cdf, p) == brute_percentile(lifespans, unspent, p), (
                lifespans,
                unspent,
                p,
            )


def test_percentile_monotone_and_tight():
    rng = random.Random(77)
    lifespans = sorted(rng.randint(0, 30) for _ in range(50))
    cdf = LifespanCdf(lifespans, 5, (0, 0), 100)
    prev = -1
    for p in [i / 20 for i in range(1, 21)]:
        got = percentile(cdf, p)
        if got is None:
            continue
        assert got >= prev
        prev = got
        assert cdf.fraction_within(got) >= p
        assert cdf.fraction_within(got - 1) < p


def test_percentile_rejects_bad_p():
    cdf = LifespanCdf([1], 0, (0, 0), 1)
    for p in [0.0, -0.1, 1.1, 2]:
        with pytest.raises(AnalyticsError):
            percentile(cdf, p)


def test_lifespan_cdf_intervals_and_as_of():
    log = make_log([(0, 5), (1, 3), (2, 9), (4, 6)])
    utxos = make_utxos([0, 3])
    cdf = lifespan_cdf(log, utxos, (0, 4), 10)
    assert cdf.lifespans == sorted([5, 2, 7, 2])
    assert cdf.unspent_count == 2
    # at as_of 6 the spend at height 9 has not happened yet
    cdf = lifespan_cdf(log, utxos, (0, 4), 6)
    assert cdf.lifespans == sorted([5, 2, 2])
    assert cdf.unspent_count == 3
    # interval filters by creation height
    cdf = lifespan_cdf(log, utxos, (1, 2), 10)
    assert cdf.lifespans == sorted([2, 7])
    assert cdf.unspent_count == 0


def test_lifespan_cdf_rejects_bad_interval():
    with pytest.raises(AnalyticsError, match="empty"):
        lifespan_cdf([], {}, (4, 2), 10)
    with pytest.raises(AnalyticsError):
        lifespan_cdf([], {}, (0, 11), 10)
    with pytest.raises(AnalyticsError):
        lifespan_cdf([], {}, (-1, 2), 10)


def test_lifespan_cdf_from_built_chain():
    cb0, cb1, cb2, cb3 = (coinbase_tx(h) for h in range(4))
    blocks = build_blocks(
        [[cb0], [cb1], [cb2, spend_tx([outpoint(cb0)])], [cb3, spend_tx([outpoint(cb2)])]]
    )
    state = build_chain(blocks)
    cdf = lifespan_cdf(state.spent_log, state.utxos, (0, 3), 3)
    assert cdf.lifespans == [1, 2]
    # cb1, cb3 coinbase outputs and the two spend-tx outputs remain
    assert cdf.unspent_count == 4
    assert percentile(cdf, 0.16) == 1  # CDF(1) = 1/6
    assert percentile(cdf, 0.3) == 2  # CDF(2) = 2/6
    assert percentile(cdf, 0.5) is None


# ---------------------------------------------------------------------------
# composition


def test_manual_byte_count_oracle_legacy_tx():
    tx = Transaction(
        1,
        [TxIn(OutPoint(bytes(32), 0), b"\x01\x02\x03", 0xFFFFFFFF), TxIn(OutPoint(bytes(32), 1), b"", 0)],
        [TxOut(1234, b"\x51\x52\x53\x54\x55")],
        0,
    )
    cb = coinbase_tx(0)
    block = build_blocks([[cb, tx]])[0]
    comp = composition_breakdown([block])[0]
    cb_in_script = len(cb.inputs[0].script)
    cb_out_script = len(cb.outputs[0].script)
    assert comp.totals["block_header"] == 81
    assert comp.totals["tx_header"] == 10 + 10
    assert comp.totals["txin_fixed"] == (40 + 1) + (2 * 40 + 2)
    assert comp.totals["txin_script"] == cb_in_script + 3
    assert comp.totals["txout_fixed"] == (8 + 1) + (8 + 1)
    assert comp.totals["txout_script"] == cb_out_script + 5
    assert comp.totals["witness"] == 0
    assert comp.total_bytes == len(encode_block(block))


def test_composition_counts_witness_separately():
    tx = spend_tx([OutPoint(bytes(32), 0)], witness=True)
    block = build_blocks([[coinbase_tx(0), tx]])[0]
    comp = composition_breakdown([block])[0]
    # 1 stack: count varint + item varint + 8 item bytes
    assert comp.totals["witness"] == 1 + 1 + 8
    assert comp.total_bytes == len(encode_block(block))
    legacy = encode_transaction(spend_tx([OutPoint(bytes(32), 0)], witness=False))
    witness_part = comp.totals["witness"] + 2  # marker/flag sits in tx_header
    assert len(encode_transaction(tx)) == len(legacy) + witness_part


def test_composition_partition_is_exact_on_random_blocks():
    rng = random.Random(12)
    tx_lists = []
    cbs = [coinbase_tx(h, out_scripts=[rng.randbytes(rng.randint(0, 80))]) for h in range(8)]
    for h in range(8):
        txs = [cbs[h]]
        if h >= 2:
            txs.append(
                spend_tx(
                    [outpoint(cbs[h - 2])],
                    out_scripts=[rng.randbytes(rng.randint(0, 300)) for _ in range(2)],
                    witness=rng.random() < 0.5,
                    in_script=rng.randbytes(rng.randint(0, 260)),
                )
            )
        tx_lists.append(txs)
    blocks = build_blocks(tx_lists)
    pre, post = composition_breakdown(blocks, segwit_boundary=4)
    assert pre.n_blocks == 4 and post.n_blocks == 4
    total = pre.total_bytes + post.total_bytes
    assert total == sum(len(encode_block(b)) for b in blocks)
    fr = pre.fractions()
    assert abs(sum(fr.values()) - 1.0) < 1e-9
    assert set(fr) == set(pre.totals)


def test_composition_split_heights():
    blocks = build_blocks([[coinbase_tx(h)] for h in range(5)])
    pre, post = composition_breakdown(blocks, segwit_boundary=3)
    assert (pre.n_blocks, post.n_blocks) == (3, 2)
    pre, post = composition_breakdown(blocks, segwit_boundary=0)
    assert (pre.n_blocks, post.n_blocks) == (0, 5)
    assert pre.total_bytes == 0
    assert pre.fractions() == {b: 0.0 for b in pre.totals}


def test_composition_merge_is_order_independent():
    blocks = build_blocks([[coinbase_tx(h)] for h in range(4)])
    parts = [composition_breakdown([b])[0] for b in blocks]
    a = parts[0].merge(parts[1]).merge(parts[2]).merge(parts[3])
    b = parts[3].merge(parts[2]).merge(parts[1].merge(parts[0]))
    assert a.totals == b.totals and a.n_txs == b.n_txs
    whole, _ = composition_breakdown(blocks, segwit_boundary=10)
    assert a.totals == whole.totals


# ---------------------------------------------------------------------------
# dedup


def test_dedup_plan_four_copies():
    script = bytes(range(25))
    cb = coinbase_tx(0, out_scripts=[script, script])
    cb2 = coinbase_tx(1, out_scripts=[script, script])
    stats = script_dedup_stats(build_blocks([[cb], [cb2]]))
    out = stats.output_side
    assert out.duplicated_distinct == 1
    assert out.duplicated_occurrences == 4
    assert out.total_bytes == 100
    assert out.dedup_bytes == 25
    assert out.saved_bytes == 75
    assert out.avg_len == 25.0


def test_dedup_all_distinct_saves_nothing():
    cb = coinbase_tx(0, out_scripts=[b"\x01", b"\x02\x03"])
    stats = script_dedup_stats(build_blocks([[cb]]))
    assert stats.output_side.duplicated_distinct == 0
    assert stats.output_side.saved_bytes == 0
    assert stats.output_side.avg_len == 0.0


def test_dedup_input_side_includes_witness_items():
    item = b"\xaa" * 16
    cb = coinbase_tx(0)
    t1 = spend_tx([outpoint(cb, 0)], witness=True)
    t1.witnesses = [WitnessStack([item, item])]
    stats = script_dedup_stats(build_blocks([[cb], [coinbase_tx(1), t1]]))
    side = stats.input_side
    assert side.duplicated_distinct == 1
    assert side.duplicated_occurrences == 2
    assert side.total_bytes == 32 and side.dedup_bytes == 16


def test_dedup_matches_brute_force_multiset():
    rng = random.Random(55)
    pool = [rng.randbytes(rng.randint(0, 40)) for _ in range(30)]
    tx_lists = []
    cbs = []
    for h in range(12):
        cb = coinbase_tx(h, out_scripts=[rng.choice(pool) for _ in range(rng.randint(1, 3))])
        cbs.append(cb)
        txs = [cb]
        if h >= 3:
            sp = spend_tx(
                [outpoint(cbs[h - 3], 0)],
                out_scripts=[rng.choice(pool)],
                in_script=rng.choice(pool),
                witness=rng.random() < 0.5,
            )
            if sp.has_witness_flag:
                sp.witnesses = [WitnessStack([rng.choice(pool), rng.choice(pool)])]
            txs.append(sp)
        tx_lists.append(txs)
    blocks = build_blocks(tx_lists)

    in_counts, out_counts = Counter(), Counter()
    for block in blocks:
        for tx in block.transactions:
            for txin in tx.inputs:
                in_counts[txin.script] += 1
            for stack in tx.witnesses:
                for it in stack.items:
                    in_counts[it] += 1
            for txout in tx.outputs:
                out_counts[txout.script] += 1

    stats = script_dedup_stats(blocks)
    for side, counts in [(stats.input_side, in_counts), (stats.output_side, out_counts)]:
        dup = {s: c for s, c in counts.items() if c >= 2}
        assert side.duplicated_distinct == len(dup)
        assert side.duplicated_occurrences == sum(dup.values())
        assert side.total_bytes == sum(c * len(s) for s, c in dup.items())
        assert side.dedup_bytes == sum(len(s) for s in dup)


# ---------------------------------------------------------------------------
# dormancy


def test_dormancy_hand_count():
    # heights {0,0,1,7,7}, width 2: floor bucketing -> {3,0,0,2}
    stats = dormancy_stats(make_utxos([0, 0, 1, 7, 7]), 2, 8)
    assert stats.buckets == [3, 0, 0, 2]
    assert sum(stats.buckets) == 5
    assert stats.blocks_with_utxo == 3


def test_dormancy_empty_set():
    stats = dormancy_stats({}, 5, 20)
    assert stats.buckets == [0, 0, 0, 0]
    assert stats.blocks_with_utxo == 0


def test_dormancy_bucket_sum_is_set_size():
    rng = random.Random(31)
    heights = [rng.randrange(0, 50) for _ in range(200)]
    utxos = make_utxos([])
    for i, h in enumerate(heights):
        op = OutPoint(i.to_bytes(32, "little"), 0)
        utxos[op] = UtxoEntry(op, h)
    stats = dormancy_stats(utxos, 7, 50)
    assert sum(stats.buckets) == 200
    assert len(stats.buckets) == (50 + 6) // 7


def test_dormancy_rejects_bad_args():
    with pytest.raises(AnalyticsError):
        dormancy_stats({}, 0, 10)
    with pytest.raises(AnalyticsError):
        dormancy_stats({}, -2, 10)
    with pytest.raises(AnalyticsError):
        dormancy_stats(make_utxos([5]), 2, 3)
