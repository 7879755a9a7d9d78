"""How a store model is measured and how many are alive at once.

- ``StoreModel.retained_bytes`` is measured from the model's parts and
  the body file size its encoding pass recorded: it joins no file and
  takes no body record's parts, and the body file is joined once, on
  the first ``bodies_bytes()``.
- ``estimate_footprint`` measures each model and drops it before the
  next is built, so one model is alive at a time however many rows the
  report has.
"""

import gc
import io

import pytest

from ledgerpack import store
from ledgerpack.chain import build_chain
from ledgerpack.fixture import gen_chain
from ledgerpack.store import build_store_model, estimate_footprint
from ledgerpack.strategies import PruneConfig, StrategyConfig
from ledgerpack.wire import read_block_stream

from test_golden import CHAINS, PRUNE_BLOCKS

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
def test_retained_bytes_takes_no_body_parts_and_the_body_file_joins_once(chain, monkeypatch, config):
    blocks, state = chain
    model = build_store_model(blocks, state, config)
    real, calls = store._bodies_parts, []

    def spy(bodies):
        calls.append(len(bodies))
        return real(bodies)

    monkeypatch.setattr(store, "_bodies_parts", spy)
    measured = model.retained_bytes
    assert calls == []
    bodies = model.bodies_bytes()
    assert calls == [len(model.bodies)]
    assert model.bodies_bytes() is bodies
    assert measured == len(model.spine_bytes()) + len(bodies) + len(model.kvs_bytes())
    assert model.retained_bytes == measured


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
