"""The common script field stays inline; every other one goes through
the script codec.

A script field shorter than 0xFD bytes whose length was stored in one
byte is framed inline by ``wire.decode_transaction``,
``wire.decode_witness_stacks``, ``strategies.slack_record`` and
``strategies.slack_decode_tx``.  Each other field (0xFD bytes or longer,
or a length stored non-canonically) is handed to
``IdentityScriptCodec.decode`` or ``.encode``, once per field.  The
slack encoder copies the witness section as it is, so only input and
output scripts reach ``encode``.
"""

import io

from blockkit import spend_tx
from ledgerpack import wire
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.strategies import slack_decode_tx, slack_encode
from ledgerpack.wire import OutPoint, WitnessStack, decode_transaction, encode_transaction, read_block_stream


def _spy(monkeypatch):
    """Count calls to each IdentityScriptCodec method from here on."""
    counts = {"decode": 0, "encode": 0}
    for name in counts:
        original = getattr(wire.IdentityScriptCodec, name)

        def spy(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(wire.IdentityScriptCodec, name, spy)
    return counts


def _chain(noncanonical_rate):
    return gen_chain(ChainPlan(seed=6, n_blocks=40, noncanonical_rate=noncanonical_rate))[0]


def _decode(data):
    return [tx for block, _ in read_block_stream(io.BytesIO(data)) for tx in block.transactions]


def _off_path(scripts_and_widths) -> int:
    return sum(1 for script, width in scripts_and_widths if len(script) >= 0xFD or width != 1)


def _codec_fields(txs):
    """(input and output script fields, all script fields) that leave the
    inline path, counted from the decoded transactions."""
    in_out = witness = 0
    for tx in txs:
        in_out += _off_path((f.script, f.script_len_width) for f in tx.inputs + tx.outputs)
        witness += _off_path(pair for s in tx.witnesses for pair in zip(s.items, s.item_widths))
    return in_out, in_out + witness


def test_canonical_chain_stays_inline(monkeypatch):
    data = _chain(0.0)
    calls = _spy(monkeypatch)
    txs = _decode(data)
    records = [slack_encode(tx) for tx in txs]
    assert [slack_decode_tx(record)[0] for record in records] == txs
    assert calls == {"decode": 0, "encode": 0}
    assert _codec_fields(txs) == (0, 0)


def _long_script_tx() -> bytes:
    """A tx whose input script, output script and witness item are 300 bytes each."""
    tx = spend_tx([OutPoint(b"\x11" * 32, 0)], out_scripts=[b"\x6a" * 300], witness=True, in_script=b"\x51" * 300)
    tx.witnesses = [WitnessStack([b"\x77" * 300])]
    return encode_transaction(tx)


def test_other_fields_go_through_the_codec_once_each(monkeypatch):
    data, long_tx = _chain(0.2), _long_script_tx()
    calls = _spy(monkeypatch)
    txs = _decode(data) + [decode_transaction(long_tx)[0]]
    in_out, every = _codec_fields(txs)
    assert _codec_fields(txs[-1:]) == (2, 3)
    assert in_out > 2 and every > in_out + 1  # the chain has non-canonical fields of each kind
    assert calls == {"decode": every, "encode": 0}

    records = [slack_encode(tx) for tx in txs]
    assert calls == {"decode": every, "encode": in_out}
    assert [slack_decode_tx(record)[0] for record in records] == txs
    assert calls == {"decode": 2 * every, "encode": in_out}
