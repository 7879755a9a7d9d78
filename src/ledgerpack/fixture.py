"""Deterministic synthetic chains with construction-time ground truth.

The generator keeps its own books while it builds: UTXO membership,
lifespans, per-bucket byte counts and script multisets are recorded
from the structures being assembled, not by re-parsing the output.
Tests then compare what chain/analytics compute from the serialized
bytes against these books.

Everything is driven by one ``random.Random(seed)``; identical plans
produce identical bytes.  PoW is never checked anywhere, so headers
carry a maximal target and arbitrary nonces.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import GenerationError
from .wire import (
    MAINNET_MAGIC,
    Block,
    BlockHeader,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    WitnessStack,
    encode_with_txid,
    frame_block,
    join_block,
    merkle_root,
    txid,
    varint_width,
)

COIN = 100_000_000

COMPOSITION_BUCKETS = (
    "block_header",
    "tx_header",
    "txin_fixed",
    "txin_script",
    "txout_fixed",
    "txout_script",
    "witness",
)


@dataclass(frozen=True)
class ChainPlan:
    seed: int
    n_blocks: int
    # cap on transactions per block, coinbase included
    txs_per_block: int = 5
    outs_per_tx: tuple[int, int] = (1, 3)
    # spend pattern: "geometric" draws lifespans with mean 1/p,
    # "fixed" spends exactly `lifespan` blocks after creation
    spend_kind: str = "geometric"
    spend_p: float = 0.25
    spend_lifespan: int = 3
    dormant_fraction: float = 0.25
    script_len: tuple[int, int] = (20, 40)
    segwit_fraction: float = 0.3
    segwit_from: int = 0
    dup_rate: float = 0.2
    noncanonical_rate: float = 0.0
    version_other_rate: float = 0.05
    nonzero_locktime_rate: float = 0.1
    nondefault_sequence_rate: float = 0.1
    big_value_rate: float = 0.05
    magic: int = MAINNET_MAGIC


@dataclass
class GroundTruth:
    """What the generator knows to be true about the bytes it emitted."""

    n_txs: int = 0
    utxo_outpoints: set = field(default_factory=set)
    utxo_creation_heights: Counter = field(default_factory=Counter)
    # actual lifespans in spend order (block by block, tx by tx, input by input)
    lifespans: list = field(default_factory=list)
    composition: dict = field(default_factory=lambda: {b: 0 for b in COMPOSITION_BUCKETS})
    input_scripts: Counter = field(default_factory=Counter)  # TxIn scripts + witness items
    output_scripts: Counter = field(default_factory=Counter)

    @property
    def utxo_count(self) -> int:
        return len(self.utxo_outpoints)

    @property
    def total_bytes(self) -> int:
        return sum(self.composition.values())


def _validate(plan: ChainPlan) -> None:
    if plan.n_blocks < 0:
        raise GenerationError("n_blocks must be nonnegative")
    if plan.txs_per_block < 1:
        raise GenerationError("txs_per_block must leave room for the coinbase")
    if plan.spend_kind == "geometric":
        if not 0.0 < plan.spend_p < 1.0:
            raise GenerationError(f"geometric spend probability must be in (0,1), got {plan.spend_p}")
    elif plan.spend_kind == "fixed":
        if plan.spend_lifespan < 1:
            raise GenerationError(
                "fixed lifespan must be >= 1; the generator emits spends only in "
                "later blocks (same-block spends need a hand-built fixture)"
            )
    else:
        raise GenerationError(f"unknown spend kind {plan.spend_kind!r}")
    if not 1 <= plan.outs_per_tx[0] <= plan.outs_per_tx[1]:
        raise GenerationError(f"outputs per tx need 1 <= MIN <= MAX, got {plan.outs_per_tx}")
    if not 0.0 <= plan.dormant_fraction <= 1.0:
        raise GenerationError("dormant_fraction must be in [0,1]")
    if plan.script_len[0] < 0 or plan.script_len[0] > plan.script_len[1]:
        raise GenerationError(f"bad script length range {plan.script_len}")


def _draw_lifespan(plan: ChainPlan, rng: random.Random) -> int:
    if plan.spend_kind == "fixed":
        return plan.spend_lifespan
    # geometric on {1,2,...} with success probability p, mean 1/p
    return 1 + int(math.log(rng.random()) / math.log(1.0 - plan.spend_p))


def _maybe_wide(value: int, rate: float, rng: random.Random) -> int:
    """Varint width to store ``value`` with: wider than canonical with
    probability ``rate``, else canonical (0)."""
    if rate and rng.random() < rate:
        w = varint_width(value)
        if w < 9:
            return {1: 3, 3: 5, 5: 9}[w]
    return 0


def _script(plan: ChainPlan, rng: random.Random, pool: list) -> bytes:
    if pool and rng.random() < plan.dup_rate:
        return rng.choice(pool)
    s = rng.randbytes(rng.randint(*plan.script_len))
    pool.append(s)
    return s


def _value(plan: ChainPlan, rng: random.Random) -> int:
    if rng.random() < plan.big_value_rate:
        # above 2^32, still far below the coin-supply cap
        return rng.randrange(1 << 32, 1 << 33)
    return rng.randrange(500, 100_000)


def _version(plan: ChainPlan, rng: random.Random) -> int:
    if rng.random() < plan.version_other_rate:
        return rng.choice([3, 4, 0x7FFFFFFF])
    return rng.choice([1, 2])


def account_tx(tx: Transaction, comp: dict) -> None:
    """Add one transaction's bytes to the composition buckets.

    Bucket boundaries: script-length varints count as fixed TxIn/TxOut
    bytes so the script buckets hold exactly the script byte strings;
    the tx_header bucket holds version, marker/flag, the input/output
    count varints and lock_time; witness holds the whole witness
    section including its varints.
    """
    header = 4 + 4  # version + lock_time
    if tx.has_witness_flag:
        header += 2
    header += tx.input_count_width or varint_width(len(tx.inputs))
    header += tx.output_count_width or varint_width(len(tx.outputs))
    comp["tx_header"] += header
    for txin in tx.inputs:
        comp["txin_fixed"] += 40 + (txin.script_len_width or varint_width(len(txin.script)))
        comp["txin_script"] += len(txin.script)
    for txout in tx.outputs:
        comp["txout_fixed"] += 8 + (txout.script_len_width or varint_width(len(txout.script)))
        comp["txout_script"] += len(txout.script)
    if tx.has_witness_flag:
        for stack in tx.witnesses:
            w = stack.count_width or varint_width(len(stack.items))
            for i, item in enumerate(stack.items):
                w += (stack._width_for(i) or varint_width(len(item))) + len(item)
            comp["witness"] += w


def account_block_header(block: Block, comp: dict) -> None:
    comp["block_header"] += 80 + (block.tx_count_width or varint_width(len(block.transactions)))


def gen_chain(plan: ChainPlan) -> tuple[bytes, GroundTruth]:
    """Generate a framed block file and the ground truth describing it."""
    _validate(plan)
    rng = random.Random(plan.seed)
    gt = GroundTruth()
    in_pool: list = []
    out_pool: list = []
    wit_pool: list = []
    # spend_height -> list of (outpoint, creation_height); overflow carries forward
    schedule: dict[int, list] = defaultdict(list)
    dormant: list = []
    rate = plan.noncanonical_rate  # of varints stored wider than canonical

    def register_outputs(t: bytes, n_outputs: int, height: int) -> None:
        for j in range(n_outputs):
            op = OutPoint(t, j)
            if rng.random() < plan.dormant_fraction:
                dormant.append((op, height))
            else:
                schedule[height + _draw_lifespan(plan, rng)].append((op, height))

    def bookkeep_tx(tx: Transaction) -> None:
        gt.n_txs += 1
        account_tx(tx, gt.composition)
        for txin in tx.inputs:
            gt.input_scripts[txin.script] += 1
        for stack in tx.witnesses:
            for item in stack.items:
                gt.input_scripts[item] += 1
        for txout in tx.outputs:
            gt.output_scripts[txout.script] += 1

    def witness_for(inputs: list, height: int) -> list:
        if height < plan.segwit_from or rng.random() >= plan.segwit_fraction:
            return []
        stacks = []
        for _ in inputs:
            items = [_script(plan, rng, wit_pool) for _ in range(rng.randint(1, 2))]
            stacks.append(
                WitnessStack(items, item_widths=[_maybe_wide(len(i), rate, rng) for i in items])
            )
        return stacks

    frames = []
    prev = bytes(32)
    for height in range(plan.n_blocks):
        txs = []

        cb_script = b"\x03" + height.to_bytes(3, "little") + rng.randbytes(4)
        cb_inputs = [TxIn(OutPoint(bytes(32), 0xFFFFFFFF), cb_script, 0xFFFFFFFF)]
        cb_outputs = []
        for _ in range(rng.randint(*plan.outs_per_tx)):
            s = _script(plan, rng, out_pool)
            cb_outputs.append(TxOut(50 * COIN, s, script_len_width=_maybe_wide(len(s), rate, rng)))
        cb = Transaction(1, cb_inputs, cb_outputs, 0)
        txs.append(cb)

        due = schedule.pop(height, [])
        while due and len(txs) < plan.txs_per_block:
            k = rng.randint(1, min(3, len(due)))
            take, due = due[:k], due[k:]
            inputs = []
            for op, _created in take:
                seq = 0xFFFFFFFF
                if rng.random() < plan.nondefault_sequence_rate:
                    seq = rng.randrange(0, 0xFFFFFFFF)
                s = _script(plan, rng, in_pool)
                inputs.append(TxIn(op, s, seq, script_len_width=_maybe_wide(len(s), rate, rng)))
            outputs = []
            for _ in range(rng.randint(*plan.outs_per_tx)):
                s = _script(plan, rng, out_pool)
                outputs.append(TxOut(_value(plan, rng), s, script_len_width=_maybe_wide(len(s), rate, rng)))
            stacks = witness_for(inputs, height)
            lock_time = 0
            if rng.random() < plan.nonzero_locktime_rate:
                lock_time = rng.randrange(1, 500_000)
            tx = Transaction(
                _version(plan, rng),
                inputs,
                outputs,
                lock_time,
                has_witness_flag=bool(stacks),
                witnesses=stacks,
                input_count_width=_maybe_wide(len(inputs), rate, rng),
                output_count_width=_maybe_wide(len(outputs), rate, rng),
            )
            txs.append(tx)
            for _op, created in take:
                gt.lifespans.append(height - created)
        if due:
            schedule[height + 1].extend(due)

        # each tx is serialized once: its bytes go into the block, its txid
        # into the outputs' outpoints and the Merkle root
        wire_txs = []
        ids = []
        for tx in txs:
            bookkeep_tx(tx)
            raw, t = encode_with_txid(tx)
            wire_txs.append(raw)
            ids.append(t)
            register_outputs(t, len(tx.outputs), height)

        block = Block(
            BlockHeader(
                1,
                prev,
                merkle_root(ids),
                1_300_000_000 + height,
                0x1D00FFFF,
                rng.randrange(1 << 32),
            ),
            txs,
            tx_count_width=_maybe_wide(len(txs), rate, rng),
        )
        account_block_header(block, gt.composition)
        raw = join_block(block, wire_txs)
        block.raw_size_bytes = len(raw)
        frames.append(frame_block(raw, plan.magic))
        prev = block.block_hash()

    for op, created in dormant:
        gt.utxo_outpoints.add((op.tx_hash, op.index))
        gt.utxo_creation_heights[created] += 1
    for entries in schedule.values():
        for op, created in entries:
            gt.utxo_outpoints.add((op.tx_hash, op.index))
            gt.utxo_creation_heights[created] += 1

    return b"".join(frames), gt


# ---------------------------------------------------------------------------
# standalone transaction corpus (not a valid chain)


@dataclass
class TxCorpus:
    """Loose transactions plus a synthetic confirmed-position table.

    Unlike a generated chain, the corpus contains prevouts that resolve
    nowhere (foreign) and positions with very large tx indexes, which a
    small valid chain cannot produce.
    """

    transactions: list
    locator: dict  # txid -> (height, tx_index)
    by_position: dict  # (height, tx_index) -> txid

    def resolve(self, height: int, tx_index: int):
        return self.by_position.get((height, tx_index))


def gen_tx_corpus(seed: int, n: int) -> TxCorpus:
    """``n`` transactions sweeping every encoding case the codecs handle.

    Covers: coinbase, legacy, segwit, versions outside {1,2}, nonzero
    lock_time, non-default sequences, values above 2^32, scripts across
    every varint width boundary, non-canonical varint widths, locally
    resolvable prevouts, foreign prevouts, and positions whose tx index
    exceeds 16 bits.
    """
    rng = random.Random(seed)
    locator: dict = {}
    by_position: dict = {}
    known_positions: list = []

    def remember(t: bytes, height: int, tx_index: int) -> None:
        locator[t] = (height, tx_index)
        by_position[(height, tx_index)] = t
        known_positions.append(t)

    # seed table of resolvable txids, some at indexes beyond 16 bits
    for i in range(200):
        t = rng.randbytes(32)
        tx_index = rng.randrange(1, 200) if i % 8 else rng.randrange(70_000, 80_000)
        remember(t, rng.randrange(0, 5000), tx_index)

    txs = []
    for i in range(n):
        if i % 13 == 0:
            script = b"\x03" + i.to_bytes(3, "little") + rng.randbytes(5)
            inputs = [TxIn(OutPoint(bytes(32), 0xFFFFFFFF), script, 0xFFFFFFFF)]
            witness = i % 26 == 0
        else:
            inputs = []
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.55 and known_positions:
                    prev_hash = rng.choice(known_positions)
                    prev_index = rng.randrange(0, 5)
                else:
                    prev_hash = rng.randbytes(32)  # resolves nowhere
                    prev_index = rng.randrange(0, 2**32 - 1)
                seq = 0xFFFFFFFF if rng.random() < 0.7 else rng.randrange(0, 2**32)
                slen = rng.choice([0, 1, 25, 71, 107, 252, 253, 300, 520])
                script = rng.randbytes(slen)
                inputs.append(
                    TxIn(
                        OutPoint(prev_hash, prev_index),
                        script,
                        seq,
                        script_len_width=_maybe_wide(slen, 0.06, rng),
                    )
                )
            witness = rng.random() < 0.4

        outputs = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.1:
                value = rng.randrange(1 << 32, 1 << 40)
            else:
                value = rng.randrange(0, 1 << 24)
            slen = rng.choice([0, 22, 23, 25, 34, 67, 253, 300])
            outputs.append(
                TxOut(value, rng.randbytes(slen), script_len_width=_maybe_wide(slen, 0.06, rng))
            )

        stacks = []
        if witness:
            for _ in inputs:
                items = [rng.randbytes(rng.choice([0, 1, 33, 72, 253])) for _ in range(rng.randint(0, 3))]
                stacks.append(
                    WitnessStack(items, item_widths=[_maybe_wide(len(x), 0.06, rng) for x in items])
                )

        version = rng.choice([1, 1, 2, 2, 3, 0, 0x7FFFFFFF])
        lock_time = rng.choice([0, 0, 0, 1, 499_999, 1_700_000_000])
        tx = Transaction(
            version,
            inputs,
            outputs,
            lock_time,
            has_witness_flag=witness,
            witnesses=stacks,
            input_count_width=_maybe_wide(len(inputs), 0.06, rng),
            output_count_width=_maybe_wide(len(outputs), 0.06, rng),
        )
        txs.append(tx)
        if rng.random() < 0.5:
            remember(txid(tx), 5000 + i, rng.randrange(0, 100))

    return TxCorpus(txs, locator, by_position)

