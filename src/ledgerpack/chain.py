"""Chain index and UTXO set construction.

Input must be a linearized main chain in height order; reorgs and forks
are out of scope.  Building walks the blocks once, applying inputs then
outputs of each transaction in order, so an output created and spent in
the same block yields a lifespan of zero.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

from .errors import ContinuityError, UnknownInputError
from .wire import COINBASE_PREVOUT_HASH, COINBASE_PREVOUT_INDEX, Block, OutPoint, hash_hex, txid

# The per-block and per-output records are named tuples: hashing,
# equality and construction run in C, and there are many of them.
SpineEntry = namedtuple("SpineEntry", ["height", "block_hash", "prev_hash"])

_tuple_new = tuple.__new__  # builds a record from a tuple of its fields, skipping __new__'s frame


@dataclass(slots=True)
class ChainIndex:
    """Height-ordered spine plus a txid → (height, tx_index) locator."""

    spine: list[SpineEntry] = field(default_factory=list)
    locator: dict[bytes, tuple[int, int]] = field(default_factory=dict)
    # txids per height, for resolving (height, tx_index) back to a txid
    txids: list[list[bytes]] = field(default_factory=list)
    # historic duplicate-txid collisions (last writer wins in the locator)
    duplicate_txids: int = 0

    def tip_height(self) -> int:
        return len(self.spine) - 1

    def tip_hash(self) -> bytes:
        return self.spine[-1].block_hash if self.spine else bytes(32)

    def txid_at(self, height: int, tx_index: int) -> bytes | None:
        if 0 <= height < len(self.txids) and 0 <= tx_index < len(self.txids[height]):
            return self.txids[height][tx_index]
        return None


UtxoEntry = namedtuple("UtxoEntry", ["outpoint", "value", "script", "creation_height"])


class SpentRecord(namedtuple("SpentRecord", ["outpoint", "creation_height", "spend_height"])):
    __slots__ = ()

    @property
    def lifespan(self) -> int:
        return self.spend_height - self.creation_height


def connect_block(
    index: ChainIndex,
    utxos: dict[OutPoint, UtxoEntry],
    block: Block,
    height: int,
) -> list[SpentRecord]:
    """Apply one block to the index and UTXO set; returns its SpentRecords.

    Every output enters the UTXO set, provably unspendable ones (a
    leading OP_RETURN byte) included.
    """
    spent = []
    _connect(index, utxos, block, height, spent)
    return spent


def _connect(
    index: ChainIndex,
    utxos: dict[OutPoint, UtxoEntry],
    block: Block,
    height: int,
    log: list[SpentRecord] | None,
) -> int:
    """:func:`connect_block`, appending each spend's record to ``log``
    unless it is None; returns the number of outputs the block spends.

    A record's outpoint is the one the UTXO set held, not the input's
    decoded prevout, so the log keeps no decoded block's objects alive.
    """
    if height != len(index.spine):
        raise ContinuityError(
            f"block at height {height} does not extend tip height {index.tip_height()}"
        )
    if height > 0 and block.header.prev_block_hash != index.tip_hash():
        raise ContinuityError(
            f"block at height {height} links to {hash_hex(block.header.prev_block_hash)}, "
            f"tip is {hash_hex(index.tip_hash())}"
        )

    spends = 0
    height_txids = []
    locator = index.locator
    pop = utxos.pop
    for tx_index, tx in enumerate(block.transactions):
        for txin in tx.inputs:
            prevout = txin.previous_output
            if prevout.index == COINBASE_PREVOUT_INDEX and prevout.tx_hash == COINBASE_PREVOUT_HASH:
                continue
            entry = pop(prevout, None)
            if entry is None:
                raise UnknownInputError(
                    f"height {height} tx {tx_index} spends unknown outpoint "
                    f"{hash_hex(prevout.tx_hash)}:{prevout.index}"
                )
            spends += 1
            if log is not None:
                log.append(_tuple_new(SpentRecord, (entry.outpoint, entry.creation_height, height)))

        t = txid(tx)
        if t in locator:
            index.duplicate_txids += 1
        locator[t] = (height, tx_index)
        height_txids.append(t)

        for out_index, txout in enumerate(tx.outputs):
            outpoint = _tuple_new(OutPoint, (t, out_index))
            utxos[outpoint] = _tuple_new(UtxoEntry, (outpoint, txout.value, txout.script, height))

    index.spine.append(SpineEntry(height, block.block_hash(), block.header.prev_block_hash))
    index.txids.append(height_txids)
    return spends


@dataclass(slots=True)
class ChainState:
    index: ChainIndex = field(default_factory=ChainIndex)
    utxos: dict[OutPoint, UtxoEntry] = field(default_factory=dict)
    # None keeps no log, for a caller that reads no spend
    spent_log: list[SpentRecord] | None = field(default_factory=list)
    spends: int = 0  # outputs spent so far, counted with or without the log

    def connect(self, block: Block) -> None:
        """Connect the next block, at height tip + 1."""
        self.spends += _connect(self.index, self.utxos, block, len(self.index.spine), self.spent_log)


def build_chain(blocks) -> ChainState:
    """Fold :meth:`ChainState.connect` over a height-ordered block iterable."""
    state = ChainState()
    for block in blocks:
        state.connect(block)
    return state
