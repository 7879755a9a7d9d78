"""Measurements over parsed chains.

Four families: UTXO lifespan CDF with percentiles, serialized byte
composition (split at a segwit boundary height), script duplication
statistics, and dormancy of the current UTXO set by creation height.

All aggregation is exact integer accounting; nothing here samples.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field

from .errors import AnalyticsError
from .wire import Block, Transaction, varint_width

# mainnet heights used by the default CLI flags
SEGWIT_BOUNDARY = 481_824

COMPOSITION_BUCKETS = (
    "block_header",
    "tx_header",
    "txin_fixed",
    "txin_script",
    "txout_fixed",
    "txout_script",
    "witness",
)


# ---------------------------------------------------------------------------
# lifespans


@dataclass
class LifespanCdf:
    """Lifespans of spent UTXOs created in one height interval.

    UTXOs created in the interval but still unspent at the as-of height
    sit in the denominator with unbounded lifespan, so CDF(inf) =
    spent/(spent+unspent) and never reaches 1 while dormant coins exist.
    """

    lifespans: list  # sorted, in blocks
    unspent_count: int
    created_in: tuple
    as_of: int

    @property
    def total(self) -> int:
        return len(self.lifespans) + self.unspent_count

    def fraction_within(self, lifespan: int) -> float:
        if self.total == 0:
            return 0.0
        return bisect.bisect_right(self.lifespans, lifespan) / self.total


def lifespan_cdf(spent_log, utxos, created_in: tuple, as_of: int) -> LifespanCdf:
    """CDF over UTXOs created in the inclusive interval ``created_in``.

    ``spent_log`` and ``utxos`` are a chain build's full outputs; spends
    that happen after ``as_of`` count as still-dormant at that height.
    """
    lo, hi = created_in
    if lo > hi:
        raise AnalyticsError(f"empty creation interval [{lo}, {hi}]")
    if lo < 0 or hi > as_of:
        raise AnalyticsError(
            f"creation interval [{lo}, {hi}] must sit within [0, as_of={as_of}]"
        )
    lifespans = []
    unspent = 0
    for rec in spent_log:
        if lo <= rec.creation_height <= hi:
            if rec.spend_height <= as_of:
                lifespans.append(rec.lifespan)
            else:
                unspent += 1
    for entry in utxos.values():
        if lo <= entry.creation_height <= hi:
            unspent += 1
    lifespans.sort()
    return LifespanCdf(lifespans, unspent, (lo, hi), as_of)


def percentile(cdf: LifespanCdf, p: float):
    """Smallest lifespan L with CDF(L) >= p, or None when p > CDF(inf).

    Left-continuous inverse CDF; comparisons use the same float
    division as :meth:`LifespanCdf.fraction_within` so results agree
    with a brute-force scan bit for bit.
    """
    if not 0.0 < p <= 1.0:
        raise AnalyticsError(f"percentile must be in (0, 1], got {p}")
    total = cdf.total
    if total == 0:
        return None
    seen = 0
    i = 0
    n = len(cdf.lifespans)
    while i < n:
        lifespan = cdf.lifespans[i]
        while i < n and cdf.lifespans[i] == lifespan:
            seen += 1
            i += 1
        if seen / total >= p:
            return lifespan
    return None


# ---------------------------------------------------------------------------
# byte composition


@dataclass
class CompositionBreakdown:
    totals: dict = field(default_factory=lambda: {b: 0 for b in COMPOSITION_BUCKETS})
    n_blocks: int = 0
    n_txs: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(self.totals.values())

    def fractions(self) -> dict:
        total = self.total_bytes
        if total == 0:
            return {b: 0.0 for b in COMPOSITION_BUCKETS}
        return {b: v / total for b, v in self.totals.items()}

    def merge(self, other: "CompositionBreakdown") -> "CompositionBreakdown":
        merged = CompositionBreakdown(
            {b: self.totals[b] + other.totals[b] for b in COMPOSITION_BUCKETS},
            self.n_blocks + other.n_blocks,
            self.n_txs + other.n_txs,
        )
        return merged


def _varint_len(value: int, width: int) -> int:
    """Encoded size of a varint stored with ``width`` (0 = canonical)."""
    return width or varint_width(value)


def _add_tx(tx: Transaction, totals: dict) -> None:
    header = 4 + 4
    if tx.has_witness_flag:
        header += 2
    header += _varint_len(len(tx.inputs), tx.input_count_width)
    header += _varint_len(len(tx.outputs), tx.output_count_width)
    totals["tx_header"] += header
    for txin in tx.inputs:
        totals["txin_fixed"] += 40 + _varint_len(len(txin.script), txin.script_len_width)
        totals["txin_script"] += len(txin.script)
    for txout in tx.outputs:
        totals["txout_fixed"] += 8 + _varint_len(len(txout.script), txout.script_len_width)
        totals["txout_script"] += len(txout.script)
    for stack in tx.witnesses:
        w = _varint_len(len(stack.items), stack.count_width)
        for i, item in enumerate(stack.items):
            w += _varint_len(len(item), stack._width_for(i)) + len(item)
        totals["witness"] += w


def _add_block(block: Block, comp: CompositionBreakdown) -> None:
    comp.n_blocks += 1
    comp.n_txs += len(block.transactions)
    comp.totals["block_header"] += 80 + _varint_len(len(block.transactions), block.tx_count_width)
    for tx in block.transactions:
        _add_tx(tx, comp.totals)


def composition_for_block(block: Block) -> CompositionBreakdown:
    """Exact bucket partition of one block's serialized bytes.

    The script-length varints count as fixed TxIn/TxOut bytes so the
    script buckets hold exactly the script byte strings; the block's
    tx-count varint counts as block header.
    """
    comp = CompositionBreakdown()
    _add_block(block, comp)
    return comp


def composition_breakdown(
    blocks, segwit_boundary: int = SEGWIT_BOUNDARY, start_height: int = 0
) -> tuple[CompositionBreakdown, CompositionBreakdown]:
    """(pre, post) bucket totals split at the boundary height.

    Blocks at heights below ``segwit_boundary`` land in the pre side.
    """
    pre = CompositionBreakdown()
    post = CompositionBreakdown()
    for i, block in enumerate(blocks):
        _add_block(block, pre if start_height + i < segwit_boundary else post)
    return pre, post


# ---------------------------------------------------------------------------
# script duplication


@dataclass
class SideDedup:
    """Duplication accounting for one script location (input or output side).

    Only byte strings occurring at least twice count as duplicated;
    ``total_bytes`` is every occurrence of those, ``dedup_bytes`` one
    copy of each.
    """

    duplicated_distinct: int = 0
    duplicated_occurrences: int = 0
    total_bytes: int = 0
    dedup_bytes: int = 0

    @property
    def avg_len(self) -> float:
        if self.duplicated_occurrences == 0:
            return 0.0
        return self.total_bytes / self.duplicated_occurrences

    @property
    def saved_bytes(self) -> int:
        return self.total_bytes - self.dedup_bytes


@dataclass
class DedupStats:
    input_side: SideDedup = field(default_factory=SideDedup)
    output_side: SideDedup = field(default_factory=SideDedup)


def _side_from_counter(counts: Counter) -> SideDedup:
    side = SideDedup()
    for script, occ in counts.items():
        if occ < 2:
            continue
        side.duplicated_distinct += 1
        side.duplicated_occurrences += occ
        side.total_bytes += occ * len(script)
        side.dedup_bytes += len(script)
    return side


def script_multisets(blocks) -> tuple[Counter, Counter]:
    """(input-side, output-side) script occurrence counts.

    The input side covers TxIn scripts (coinbase included) and witness
    items; the output side covers TxOut scripts.
    """
    inputs: Counter = Counter()
    outputs: Counter = Counter()
    for block in blocks:
        for tx in block.transactions:
            for txin in tx.inputs:
                inputs[txin.script] += 1
            for stack in tx.witnesses:
                for item in stack.items:
                    inputs[item] += 1
            for txout in tx.outputs:
                outputs[txout.script] += 1
    return inputs, outputs


def script_dedup_stats(blocks) -> DedupStats:
    inputs, outputs = script_multisets(blocks)
    return DedupStats(_side_from_counter(inputs), _side_from_counter(outputs))


# ---------------------------------------------------------------------------
# dormancy


@dataclass
class DormancyStats:
    bucket_width: int
    buckets: list  # current-UTXO count per creation-height bucket
    blocks_with_utxo: int
    n_blocks: int

    @property
    def blocks_with_utxo_fraction(self) -> float:
        return self.blocks_with_utxo / self.n_blocks if self.n_blocks else 0.0


def dormancy_stats(utxos, bucket_width: int, n_blocks: int) -> DormancyStats:
    """Partition the current UTXO set by creation-height bucket.

    Bucket i covers heights [i*width, (i+1)*width); the bucket list
    spans all ``n_blocks`` heights even where empty.
    """
    if bucket_width <= 0:
        raise AnalyticsError(f"bucket width must be positive, got {bucket_width}")
    if n_blocks < 0:
        raise AnalyticsError("n_blocks must be nonnegative")
    n_buckets = (n_blocks + bucket_width - 1) // bucket_width
    buckets = [0] * n_buckets
    heights = set()
    for entry in utxos.values():
        if entry.creation_height >= n_blocks:
            raise AnalyticsError(
                f"UTXO created at height {entry.creation_height} outside chain of {n_blocks}"
            )
        buckets[entry.creation_height // bucket_width] += 1
        heights.add(entry.creation_height)
    return DormancyStats(bucket_width, buckets, len(heights), n_blocks)
