"""The store commands build and hold only what they read.

On the benchmark's squeeze chain (seed 1, 800 blocks), with the
prune+minimize+slack+dedup flags and with minimize+slack alone:

- Every candidate record is measured from its parts.  ``estimate`` keeps
  no record, so it joins no payload; ``compact`` joins one payload per
  body record that an encoding pass keeps.
- Each height where minimize drops a tx has one list of kept positions,
  built once per command.  Every minimize pass encodes from it and holds
  it as the positions a reader decodes there.
- An unspent output holds its outpoint and its creation height, and
  neither its value nor its script.
"""

import contextlib
import io
from collections import Counter

import pytest

from ledgerpack import cli, store
from ledgerpack.chain import UtxoEntry, build_chain
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.wire import read_block_stream

# the benchmark's squeeze workload at seed 1, and its strategy flags
SQUEEZE = ChainPlan(
    seed=1, n_blocks=800, dup_rate=0.6, segwit_fraction=0.6, noncanonical_rate=0.05, dormant_fraction=0.4
)
FLAGS = {
    "squeeze": ["--prune-blocks", "400", "--minimize", "--slack", "--dedup-scripts"],
    "minimize-slack": ["--minimize", "--slack"],
}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    data, _ = gen_chain(SQUEEZE)
    path = tmp_path_factory.mktemp("squeeze") / "chain.dat"
    path.write_bytes(data)
    return str(path)


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture
def joins(monkeypatch):
    """Counts ``wire.join_block`` calls from the store, and each walk over a
    candidate's parts after ``_Pass.candidates`` yielded it measured, which
    only a join of its payload makes."""
    joins = Counter()
    real_join_block = store.join_block

    def join_block(*args):
        joins["join_block"] += 1
        return real_join_block(*args)

    class Parts(list):
        def __iter__(self):
            joins["payload"] += 1
            return super().__iter__()

    real_candidates = store._Pass.candidates

    def candidates(self, *args):
        for candidate in real_candidates(self, *args):
            if isinstance(candidate[1], int):  # (size, kind, parts, ...)
                candidate = (*candidate[:2], Parts(candidate[2]), *candidate[3:])
            yield candidate

    monkeypatch.setattr(store, "join_block", join_block)
    monkeypatch.setattr(store._Pass, "candidates", candidates)
    return joins


@pytest.fixture
def passes(monkeypatch):
    """Every encoding pass a command makes."""
    made = []
    real_init = store._Pass.__init__

    def init(self, *args):
        real_init(self, *args)
        made.append(self)

    monkeypatch.setattr(store._Pass, "__init__", init)
    return made


@pytest.mark.parametrize("flags", list(FLAGS))
def test_estimate_joins_no_payload(chain, joins, passes, flags):
    _run(["estimate", chain, *FLAGS[flags]])
    assert passes and all(p.readable for p in passes)
    assert joins == Counter()


@pytest.mark.parametrize("flags", list(FLAGS))
def test_compact_joins_one_payload_per_kept_record(chain, joins, passes, tmp_path, flags):
    _run(["compact", chain, str(tmp_path), *FLAGS[flags]])
    written = len(store.read_store(str(tmp_path)).bodies)
    kept = [len(p.bodies) for p in passes]
    # under dedup the first pass and the dedup pass each keep their records
    assert written in kept and len(kept) == (2 if "--dedup-scripts" in FLAGS[flags] else 1)
    assert joins == Counter(payload=sum(kept))


@pytest.mark.parametrize("command", ["estimate", "compact"])
def test_each_kept_position_list_is_built_once_and_shared(chain, passes, tmp_path, command):
    argv = [command, chain, *([str(tmp_path)] if command == "compact" else []), *FLAGS["squeeze"]]
    _run(argv)
    minimizing = [p for p in passes if p.config.minimize]
    assert len(minimizing) >= 2
    minimized = minimizing[0].minimized
    assert all(p.minimized is minimized for p in minimizing)
    dropped = {h: kept for h, (kept, copath) in minimized.items() if copath is not None}
    shared = 0
    for p in minimizing:
        for height in dropped.keys() & p.readable.keys():
            # a minimized record's reader decodes the kept list itself; a raw or compact one's, every tx
            positions = p.readable[height]
            assert positions is dropped[height] or isinstance(positions, range)
            shared += positions is dropped[height]
    assert shared >= len(minimizing)


def test_an_unspent_output_holds_its_outpoint_and_creation_height():
    assert UtxoEntry._fields == ("outpoint", "creation_height")
    data, _ = gen_chain(ChainPlan(seed=3, n_blocks=12))
    state = build_chain(b for b, _ in read_block_stream(io.BytesIO(data)))
    assert state.utxos
    for outpoint, entry in state.utxos.items():
        assert entry.outpoint is outpoint
        assert outpoint.tx_hash in state.index.txids[entry.creation_height]
