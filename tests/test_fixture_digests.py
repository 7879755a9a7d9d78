"""The fixture generator's output, pinned byte for byte.

``gen_chain`` and ``gen_tx_corpus`` draw from one seeded
``random.Random``; the golden chains, the test corpora and the
benchmark's size probe all depend on them drawing the same numbers in
the same order.  These digests pin the bytes and the ground truth of
the benchmark's three chain plans (as ``perfbench/workloads.py`` defines
them, for benchmark seed 1; wide's size probe picks fixture seed 1018)
and of one transaction corpus, so a change to how the generator
serializes must leave both unchanged.
"""

import hashlib
import json

import pytest

from ledgerpack.fixture import ChainPlan, gen_chain, gen_tx_corpus
from ledgerpack.wire import encode_transaction

PLANS = {
    "archive": ChainPlan(
        seed=1, n_blocks=400, txs_per_block=10, spend_kind="fixed", spend_lifespan=2, dormant_fraction=0.1
    ),
    "squeeze": ChainPlan(
        seed=1, n_blocks=800, dup_rate=0.6, segwit_fraction=0.6, noncanonical_rate=0.05, dormant_fraction=0.4
    ),
    "wide": ChainPlan(
        seed=1018,
        n_blocks=18,
        txs_per_block=2000,
        outs_per_tx=(2, 4),
        spend_kind="fixed",
        spend_lifespan=1,
        dormant_fraction=0.05,
    ),
}

# name -> (sha256 of the framed block file, sha256 of the ground truth)
CHAIN_DIGESTS = {
    "archive": (
        "0a49d2ec8917699179a3c82b0a94d3ab9a1f334925c1adae90435255d443182f",
        "08628dcb532d98fc897f59e4c23fdf8840f4e1b1216b86151c1513342ad1cc1a",
    ),
    "squeeze": (
        "70ab587bc65cc94df2a39acdf40cb1dc5aa37b0df64a4917d9764b3b7d1659c2",
        "c460ebaf4fae43b108780dcc4edc43aa46a284e59ab32045d4a74a0abaabd9a4",
    ),
    "wide": (
        "96fc607c04df0f0a56f1323b249fcf40402f3e0e506be8a945e2c129f8ce2f84",
        "acea16a051001ce54bb714352ca68b07f12b40abedc492c6401bdd414702bc76",
    ),
}
CORPUS_DIGEST = "dcc55bcb88a071c72987368cb652a96f9fb162d5cd8c95ff2af1391296afc895"


def _truth_digest(gt) -> str:
    def counter(c):
        return sorted((k.hex() if isinstance(k, bytes) else k, v) for k, v in c.items())

    doc = {
        "n_txs": gt.n_txs,
        "utxos": sorted((h.hex(), i) for h, i in gt.utxo_outpoints),
        "creation_heights": counter(gt.utxo_creation_heights),
        "lifespans": gt.lifespans,
        "composition": gt.composition,
        "input_scripts": counter(gt.input_scripts),
        "output_scripts": counter(gt.output_scripts),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for tx in corpus.transactions:
        h.update(encode_transaction(tx))
    for t, (height, index) in sorted(corpus.locator.items()):
        h.update(t + height.to_bytes(4, "little") + index.to_bytes(4, "little"))
    assert len(corpus.by_position) == len(corpus.locator)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PLANS))
def test_gen_chain_output_is_pinned(name):
    data, truth = gen_chain(PLANS[name])
    assert (hashlib.sha256(data).hexdigest(), _truth_digest(truth)) == CHAIN_DIGESTS[name]


def test_gen_tx_corpus_output_is_pinned():
    assert _corpus_digest(gen_tx_corpus(3303, 800)) == CORPUS_DIGEST
