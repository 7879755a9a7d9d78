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
from .wire import COINBASE_PREVOUT_HASH, COINBASE_PREVOUT_INDEX, Block, BlockHeader, OutPoint, _tuple_new, hash_hex, txid


@dataclass(slots=True)
class ChainIndex:
    """Each height's block hash and txids; a txid → (height, tx_index)
    locator is built from them on the first read after a connect."""

    spine: list[bytes] = field(default_factory=list)  # block hash per height
    txids: list[list[bytes]] = field(default_factory=list)  # txids per height
    _locator: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def locator(self) -> dict[bytes, tuple[int, int]]:
        """txid → (height, tx_index); the last of equal txids wins."""
        if self._locator is None:
            self._locator = {t: (h, i) for h, ts in enumerate(self.txids) for i, t in enumerate(ts)}
        return self._locator

    def tip_height(self) -> int:
        return len(self.spine) - 1

    def tip_hash(self) -> bytes:
        return self.spine[-1] if self.spine else bytes(32)

    def txid_at(self, height: int, tx_index: int) -> bytes | None:
        if 0 <= height < len(self.txids) and 0 <= tx_index < len(self.txids[height]):
            return self.txids[height][tx_index]
        return None


# The per-output records are named tuples, hashed and built in C.  An
# unspent output keeps no value or script: no report or store reads them.
UtxoEntry = namedtuple("UtxoEntry", ["outpoint", "creation_height"])
_COINBASE_PREVOUT = (COINBASE_PREVOUT_HASH, COINBASE_PREVOUT_INDEX)


class SpentRecord(namedtuple("SpentRecord", ["outpoint", "creation_height", "spend_height"])):
    __slots__ = ()

    @property
    def lifespan(self) -> int:
        return self.spend_height - self.creation_height


@dataclass(slots=True)
class ChainState:
    index: ChainIndex = field(default_factory=ChainIndex)
    utxos: dict[OutPoint, UtxoEntry] = field(default_factory=dict)
    # None keeps no log, for a caller that reads no spend
    spent_log: list[SpentRecord] | None = field(default_factory=list)
    spends: int = 0  # outputs spent so far, counted with or without the log

    def connect(self, block: Block) -> None:
        """Connect the next block, at height tip + 1: :meth:`connect_links`
        over its transactions' links."""
        links = ((txid(tx), [txin.previous_output for txin in tx.inputs], len(tx.outputs)) for tx in block.transactions)
        self.connect_links(block.header, links)

    def connect_links(self, header: BlockHeader, links) -> None:
        """Connect the next block from its header and, per transaction, its
        ``(txid, spent outpoints, output count)``, as
        :func:`ledgerpack.wire.block_links` gives them.

        Every output enters the UTXO set, provably unspendable ones (a
        leading OP_RETURN byte) included.  A logged spend's outpoint is the
        one the UTXO set held, not the input's prevout, so the log keeps
        no block's objects alive.
        """
        index, utxos, log = self.index, self.utxos, self.spent_log
        height = len(index.spine)
        if height > 0 and header.prev_block_hash != index.tip_hash():
            raise ContinuityError(
                f"block at height {height} links to {hash_hex(header.prev_block_hash)}, "
                f"tip is {hash_hex(index.tip_hash())}"
            )

        spends = 0
        height_txids = []
        pop = utxos.pop
        for tx_index, (t, spent, n_out) in enumerate(links):
            for prevout in spent:
                if prevout == _COINBASE_PREVOUT:
                    continue
                entry = pop(prevout, None)
                if entry is None:
                    tx_hash, out_index = prevout
                    raise UnknownInputError(
                        f"height {height} tx {tx_index} spends unknown outpoint {hash_hex(tx_hash)}:{out_index}"
                    )
                spends += 1
                if log is not None:
                    log.append(_tuple_new(SpentRecord, (entry.outpoint, entry.creation_height, height)))

            height_txids.append(t)
            for out_index in range(n_out):
                outpoint = _tuple_new(OutPoint, (t, out_index))
                utxos[outpoint] = _tuple_new(UtxoEntry, (outpoint, height))

        self.spends += spends
        index.spine.append(header.block_hash())
        index.txids.append(height_txids)
        index._locator = None


def build_chain(blocks) -> ChainState:
    """Fold :meth:`ChainState.connect` over a height-ordered block iterable."""
    state = ChainState()
    for block in blocks:
        state.connect(block)
    return state
