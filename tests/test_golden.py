"""Golden digests: the store files and every CLI report, byte for byte.

Two small fixture chains, one of them segwit-, dup- and
non-canonical-heavy, are compacted under all 16 strategy subsets and run
through every report command in both output formats.  The sha256 of each
store file and of each report's stdout must match
``golden_digests.json``, so a refactor that changes any output byte
fails here.  After a deliberate format change, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""

import hashlib
import io
import itertools
import json
import os
import sys
from contextlib import redirect_stdout

from ledgerpack.chain import build_chain
from ledgerpack.cli import main
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import BODIES_FILE, KVS_FILE, MANIFEST_FILE, SPINE_FILE, build_store_model, write_store
from ledgerpack.strategies import PruneConfig, StrategyConfig
from ledgerpack.wire import read_block_stream

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

CHAINS = {
    "plain": ChainPlan(seed=7, n_blocks=40, txs_per_block=8),
    "heavy": ChainPlan(
        seed=11,
        n_blocks=40,
        txs_per_block=10,
        segwit_fraction=0.7,
        dup_rate=0.7,
        noncanonical_rate=0.3,
    ),
}
PRUNE_BLOCKS = 15
STRATEGY_FLAGS = ["--prune-blocks", str(PRUNE_BLOCKS), "--minimize", "--slack", "--dedup-scripts"]

CLI_COMMANDS = {
    "parse": ["parse", "chain.dat"],
    "stats-lifespan": ["stats", "lifespan", "chain.dat"],
    "stats-composition": ["stats", "composition", "chain.dat", "--split-height", "20"],
    "stats-dedup": ["stats", "dedup", "chain.dat"],
    "stats-dormancy": ["stats", "dormancy", "chain.dat", "--bucket-width", "5"],
    "estimate": ["estimate", "chain.dat", *STRATEGY_FLAGS],
    "compact": ["compact", "chain.dat", "store", *STRATEGY_FLAGS],
    "verify": ["verify", "store"],
}


def all_configs():
    for p, m, s, d in itertools.product([False, True], repeat=4):
        prune = PruneConfig("blocks", blocks=PRUNE_BLOCKS) if p else None
        yield StrategyConfig(prune=prune, minimize=m, slack=s, dedup=d)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def current_digests(workdir):
    """Digest of every store file and report, keyed chain/what/which."""
    digests = {}
    coverage = set()
    for name, plan in CHAINS.items():
        chain_dir = os.path.join(workdir, name)
        os.makedirs(chain_dir)
        data, _ = gen_chain(plan)
        with open(os.path.join(chain_dir, "chain.dat"), "wb") as fh:
            fh.write(data)

        blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
        state = build_chain(blocks)
        for config in all_configs():
            model = build_store_model(blocks, state, config)
            store_dir = os.path.join(chain_dir, "model-" + config.label())
            write_store(model, store_dir)
            for filename in (SPINE_FILE, BODIES_FILE, KVS_FILE, MANIFEST_FILE):
                digests[f"{name}/{config.label()}/{filename}"] = sha256_file(
                    os.path.join(store_dir, filename)
                )
            coverage.add(("dedup_effective", model.dedup_effective))
            for rec in model.bodies:
                coverage.add(("kind", rec.kind, rec.payload[0] if rec.kind == 2 else None))

        cwd = os.getcwd()
        os.chdir(chain_dir)
        try:
            for command, argv in CLI_COMMANDS.items():
                for fmt in ("csv", "ldjson"):
                    out = io.StringIO()
                    with redirect_stdout(out):
                        code = main([*argv, "--format", fmt])
                    assert code == 0, (name, command, fmt)
                    digests[f"{name}/cli/{command}.{fmt}"] = hashlib.sha256(
                        out.getvalue().encode("utf-8")
                    ).hexdigest()
        finally:
            os.chdir(cwd)
    return digests, coverage


def test_golden_digests(tmp_path):
    digests, coverage = current_digests(str(tmp_path))
    # the fixtures must reach every record form the digests are meant to pin:
    # raw, compact, minimized with plain and with compact kept txs, and
    # dedup both taking effect and backing off
    assert coverage >= {
        ("dedup_effective", True),
        ("dedup_effective", False),
        ("kind", 1, None),
        ("kind", 3, None),
        ("kind", 2, 0),
        ("kind", 2, 1),
    }
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert digests == golden


def test_readme_library_example_size():
    data, _ = gen_chain(ChainPlan(seed=7, n_blocks=200, txs_per_block=8))
    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    state = build_chain(blocks)
    config = StrategyConfig(prune=PruneConfig("blocks", blocks=50), minimize=True, slack=True)
    assert build_store_model(blocks, state, config).retained_bytes == 39359


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found, _ = current_digests(tmp)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(found, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(found)} digests to {GOLDEN_PATH}", file=sys.stderr)
