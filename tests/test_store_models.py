"""How a store model is measured, written and how many are alive at once.

- ``StoreModel.retained_bytes`` is measured from the model's parts and
  the body file size its encoding pass recorded: it joins no file and
  takes no body record's parts.
- ``compact`` writes, hashes and reports each store file from its parts
  and joins none, so writing a store allocates a small share of it.
- ``estimate_footprint`` measures each model and drops it before the
  next is built, so one model is alive at a time however many rows the
  report has.
"""

import gc
import hashlib
import io
import json
import tracemalloc

import pytest

from ledgerpack import cli, store
from ledgerpack.chain import build_chain
from ledgerpack.fixture import gen_chain
from ledgerpack.store import build_store_model, estimate_footprint
from ledgerpack.strategies import PruneConfig, StrategyConfig
from ledgerpack.wire import read_block_stream

from test_golden import CHAINS, GOLDEN_PATH, PRUNE_BLOCKS, STRATEGY_FLAGS
from test_verify_walk import w1_shaped_chain  # noqa: F401  (a fixture)

CONFIGS = [
    StrategyConfig(),
    StrategyConfig(prune=PruneConfig("blocks", blocks=PRUNE_BLOCKS)),
    StrategyConfig(minimize=True, slack=True),
    StrategyConfig(slack=True, dedup=True),
]
EVERY_STRATEGY = StrategyConfig(prune=PruneConfig("blocks", blocks=PRUNE_BLOCKS), minimize=True, slack=True, dedup=True)


@pytest.fixture(scope="module")
def chain():
    data, _ = gen_chain(CHAINS["heavy"])
    blocks = [block for block, _ in read_block_stream(io.BytesIO(data))]
    return blocks, build_chain(blocks)


@pytest.mark.parametrize("config", CONFIGS, ids=StrategyConfig.label)
def test_retained_bytes_takes_no_body_parts(chain, monkeypatch, config):
    blocks, state = chain
    model = build_store_model(blocks, state, config)
    real, calls = store._bodies_parts, []

    def spy(bodies):
        calls.append(len(bodies))
        return real(bodies)

    monkeypatch.setattr(store, "_bodies_parts", spy)
    measured = model.retained_bytes
    assert calls == []
    files = model.spine_bytes(), model.bodies_bytes(), model.kvs_bytes()
    assert model.sizes() == tuple(map(len, files))
    assert measured == sum(map(len, files))


@pytest.mark.parametrize(
    "label, flags",
    [("baseline", []), ("slack+dedup", ["--slack", "--dedup-scripts"]), ("prune+minimize+slack+dedup", STRATEGY_FLAGS)],
)
def test_compact_joins_no_store_file(tmp_path, monkeypatch, capsys, label, flags):
    """The store files and the report match the golden digests with every
    whole-file join made to fail."""
    data, _ = gen_chain(CHAINS["heavy"])
    (tmp_path / "chain.dat").write_bytes(data)

    def joined(model):
        raise AssertionError("a store file was joined")

    for name in ("spine_bytes", "bodies_bytes", "kvs_bytes"):
        monkeypatch.setattr(store.StoreModel, name, joined)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["compact", "chain.dat", "store", *flags]) == 0
    report = capsys.readouterr().out
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    for name in (store.SPINE_FILE, store.BODIES_FILE, store.KVS_FILE, store.MANIFEST_FILE):
        digest = hashlib.sha256((tmp_path / "store" / name).read_bytes()).hexdigest()
        assert digest == golden[f"heavy/{label}/{name}"], name
    if flags == STRATEGY_FLAGS:
        assert hashlib.sha256(report.encode("utf-8")).hexdigest() == golden["heavy/cli/compact.csv"]


def test_writing_a_store_allocates_a_small_share_of_its_bodies(w1_shaped_chain, tmp_path):
    """A baseline model of a 1000-block chain shaped like the acceptance
    suite's 10k-block one is written without a copy of its body file."""
    model = build_store_model(*w1_shaped_chain)
    tracemalloc.start()
    try:
        store.write_store(model, str(tmp_path / "store"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * model.bodies_size, f"peak {peak} bytes for a {model.bodies_size}-byte body file"


def test_estimate_holds_one_store_model_at_a_time(chain, monkeypatch):
    """Each model is built after the one before it is freed, and measured
    while it is the only one alive."""
    blocks, state = chain
    built, measured = [], []

    def alive():
        return sum(type(obj) is store.StoreModel for obj in gc.get_objects())

    def spy(real, counts):
        def call(*args):
            counts.append(alive())
            return real(*args)

        return call

    # a model being initialised is alive already
    monkeypatch.setattr(store.StoreModel, "__init__", spy(store.StoreModel.__init__, built))
    monkeypatch.setattr(store, "_spine_parts", spy(store._spine_parts, measured))
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # so only this call changes the count
    try:
        before = alive()
        report = estimate_footprint(blocks, state, EVERY_STRATEGY)
    finally:
        if gc_was_enabled:
            gc.enable()
    assert len(report.rows) == 6
    assert built == [before + 1] * 6
    assert measured == [before + 1] * 6
