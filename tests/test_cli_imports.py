"""Each CLI subcommand loads only the modules it runs.

``parse`` and the ``stats`` reports never touch the store, the
strategies or the fixture generator, so neither importing
``ledgerpack.cli`` nor running them may load those modules: a child
interpreter without a bytecode cache compiles every module it imports.
Each case runs in a fresh interpreter, because this process has already
imported them all.
"""

import json
import os
import subprocess
import sys

import pytest

from ledgerpack.fixture import ChainPlan, gen_chain

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
STORE_SIDE = {"ledgerpack.store", "ledgerpack.strategies", "ledgerpack.fixture"}

# runs one command with its report sent to a file, then prints the
# package modules the interpreter loaded
PROBE = """
import json, sys
from ledgerpack import cli
argv = json.loads(sys.argv[1])
if argv and cli.main(argv) != 0:
    sys.exit("command failed")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("ledgerpack"))))
"""


def _loaded_modules(argv) -> set:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain") / "chain.dat"
    path.write_bytes(gen_chain(ChainPlan(seed=7, n_blocks=12))[0])
    return str(path)


def test_importing_the_cli_loads_no_store_module():
    loaded = _loaded_modules([])
    assert "ledgerpack.cli" in loaded
    assert not loaded & STORE_SIDE


@pytest.mark.parametrize(
    "command",
    [["parse"], ["stats", "lifespan"], ["stats", "composition"], ["stats", "dedup"], ["stats", "dormancy"]],
    ids=" ".join,
)
def test_parse_and_stats_load_no_store_module(chain, tmp_path, command):
    loaded = _loaded_modules([*command, chain, "--output", str(tmp_path / "report.csv")])
    assert not loaded & STORE_SIDE
    assert (tmp_path / "report.csv").stat().st_size > 0


def test_estimate_loads_the_store(chain, tmp_path):
    # the probe sees a deferred import once a command runs it
    loaded = _loaded_modules(["estimate", chain, "--slack", "--output", str(tmp_path / "report.csv")])
    assert {"ledgerpack.store", "ledgerpack.strategies"} <= loaded
    assert "ledgerpack.fixture" not in loaded
