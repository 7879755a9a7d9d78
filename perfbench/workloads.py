"""The benchmark's workloads: a chain plan and a CLI command sequence each.

Each workload is a closed loop with one client: the commands run one at
a time, each as its own child process, and the next starts only after
the previous one has exited.  The machine the benchmark was sized on
has two cores, so running children in parallel would only measure
contention.

Sizes are scaled down from the shapes the workloads imitate so that one
command sequence takes a few seconds and a run repeats it several
times; the repetitions are what make the reported medians steady.  Why
each workload was chosen is in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SizeProbe:
    """Pins a chain's size: the fixture seed is the first of seed*1000+k
    that passes two filters, both half-open ranges.  First, the chain's
    first ``prefix_blocks`` blocks must leave ``prefix_utxos`` unspent
    outputs; this prefix is cheap and predicts the total closely.  Only
    then is the whole chain generated, and it must have ``txs``
    transactions.  A candidate whose whole chain would fit but whose
    prefix falls outside the range is skipped."""

    prefix_blocks: int
    prefix_utxos: tuple
    txs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    # keyword arguments of ledgerpack.fixture.ChainPlan, without the seed
    plan: dict
    # CLI argument lists; "CHAIN" and "STORE" stand for the input file and
    # the store directory, both relative to the run's work directory, and
    # "FLAGS" for the strategy flags below
    commands: list
    # the strategy flags estimate and compact receive
    flags: list = field(default_factory=list)
    # pins the chain's size where the seed alone would not
    probe: SizeProbe | None = None

    def argv(self, command: list) -> list:
        out = []
        for arg in command:
            out += self.flags if arg == "FLAGS" else [{"CHAIN": "chain.dat", "STORE": "store"}.get(arg, arg)]
        return out


_STRATEGY_COMMANDS = [
    ["estimate", "CHAIN", "FLAGS"],
    ["compact", "CHAIN", "STORE", "FLAGS"],
    ["verify", "STORE"],
]


_ARCHIVE_BLOCKS = 400
_SQUEEZE_BLOCKS = 800
_WIDE_FLAGS = ["--minimize", "--slack"]


def squeeze_flags(n_blocks: int) -> list:
    """Pruning keeps the newer half of the chain, so verify still decodes
    and checks real records."""
    return ["--prune-blocks", str(n_blocks // 2), "--minimize", "--slack", "--dedup-scripts"]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="archive",
            plan=dict(
                n_blocks=_ARCHIVE_BLOCKS,
                txs_per_block=10,
                spend_kind="fixed",
                spend_lifespan=2,
                dormant_fraction=0.1,
            ),
            commands=[
                ["parse", "CHAIN"],
                ["stats", "lifespan", "CHAIN"],
                ["stats", "composition", "CHAIN"],
                ["stats", "dedup", "CHAIN"],
                ["stats", "dormancy", "CHAIN"],
                ["compact", "CHAIN", "STORE", "FLAGS"],
                ["verify", "STORE"],
            ],
        ),
        Workload(
            name="squeeze",
            plan=dict(
                n_blocks=_SQUEEZE_BLOCKS,
                dup_rate=0.6,
                segwit_fraction=0.6,
                noncanonical_rate=0.05,
                dormant_fraction=0.4,
            ),
            commands=_STRATEGY_COMMANDS,
            flags=squeeze_flags(_SQUEEZE_BLOCKS),
        ),
        Workload(
            name="wide",
            plan=dict(
                n_blocks=18,
                txs_per_block=2000,
                outs_per_tx=(2, 4),
                spend_kind="fixed",
                spend_lifespan=1,
                dormant_fraction=0.05,
            ),
            commands=[["parse", "CHAIN"], *_STRATEGY_COMMANDS],
            flags=_WIDE_FLAGS,
            # A wide chain grows from one coinbase until its blocks reach
            # 2000 txs, and early chance decides at which height: over 40
            # seeds the 20-block chains held 4k to 12k txs.  Without the
            # probe, run-to-run spread would measure the seeds, not the code.
            probe=SizeProbe(prefix_blocks=13, prefix_utxos=(1100, 1200), txs=(6600, 6850)),
        ),
    ]
}


def command_name(args: list) -> str:
    """Short name of one command, e.g. ``stats.dedup`` or ``compact``."""
    return f"stats.{args[1]}" if args[0] == "stats" else args[0]
