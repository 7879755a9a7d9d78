"""The traced run: the public functions of each module, called layer by layer.

The walk calls what the CLI commands call, one layer at a time, on the
same chain file, and wraps each call in a span.  It runs inside the
benchmark's process; spans live in the benchmark's own code, around the
calls, so the program is measured as shipped.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from checks import DORMANCY_BUCKET_WIDTH, LIFESPAN_PERCENTILES, Expected

# Every store model the workloads build, by label.  Each workload's traced
# run builds all of them on its own chain, so every per-layer time is
# measured on every workload.
MODEL_LABELS = (
    "baseline",
    "prune",
    "minimize",
    "slack",
    "dedup",
    "minimize+slack",
    "prune+minimize+slack+dedup",
)


class Tracer:
    """Spans kept in memory as (id, name, start, end, parent id, run id)."""

    def __init__(self, enabled: bool = True):
        self.spans: list = []
        self.enabled = enabled
        self.run_id = 0
        self._stack: list = []

    @staticmethod
    def span_cost(n: int = 20000) -> float:
        """Seconds one recorded span costs more than the same span disabled."""
        costs = []
        for enabled in (True, False):
            tracer = Tracer(enabled)
            start = time.perf_counter()
            for _ in range(n):
                with tracer.span("calibrate"):
                    pass
            costs.append(time.perf_counter() - start)
        return (costs[0] - costs[1]) / n

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def self_times(self, run_id: int) -> dict:
        """Seconds per span name in one run, minus the time of child spans.

        Spans nest and never overlap within a run, since the walk is
        single-threaded, so the children's durations add up to the
        covered part of the parent.
        """
        spans = [s for s in self.spans if s[5] == run_id]
        child_time: dict = {}
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict = {}
        for span_id, name, start, end, _, _ in spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
        return totals

    def as_records(self) -> list:
        keys = ("id", "name", "start", "end", "parent", "run")
        return [dict(zip(keys, s)) for s in self.spans]


def config_for_flags(flags: list):
    """The StrategyConfig the CLI builds from these strategy flags."""
    from ledgerpack.strategies import PruneConfig, StrategyConfig

    prune = None
    if "--prune-blocks" in flags:
        prune = PruneConfig("blocks", blocks=int(flags[flags.index("--prune-blocks") + 1]))
    return StrategyConfig(
        prune=prune,
        minimize="--minimize" in flags,
        slack="--slack" in flags,
        dedup="--dedup-scripts" in flags,
    )


def config_for_label(label: str, n_blocks: int):
    """StrategyConfig for a model label; prune keeps the newer half of the chain,
    as on the squeeze workload."""
    from ledgerpack.strategies import PruneConfig, StrategyConfig

    parts = set(label.split("+"))
    return StrategyConfig(
        prune=PruneConfig("blocks", blocks=n_blocks // 2) if "prune" in parts else None,
        minimize="minimize" in parts,
        slack="slack" in parts,
        dedup="dedup" in parts,
    )


def walk(tr: Tracer, chain_path: str, store_dir: str, exp: Expected, flags: list) -> tuple:
    """One pass over every layer; returns (counts and ratios, problems found)."""
    from ledgerpack import analytics, store, strategies, wire
    from ledgerpack.chain import build_chain

    problems: list = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"traced run: {what}: got {got!r}, expected {want!r}")

    with tr.span("walk"):
        with tr.span("wire.decode"):
            blocks = wire.read_block_file(chain_path)
        with tr.span("wire.txid"):
            ids = [[wire.txid(tx) for tx in b.transactions] for b in blocks]
        with tr.span("wire.merkle"):
            roots = [wire.merkle_root(block_ids) for block_ids in ids]
        with tr.span("wire.encode"):
            raws = [wire.encode_block(b) for b in blocks]
        n_txs = sum(len(block_ids) for block_ids in ids)
        expect("transactions", n_txs, exp.n_txs)
        expect("merkle roots", roots, [b.header.merkle_root for b in blocks])
        expect("re-encoded blocks equal the input", raws == exp.bodies, True)

        with tr.span("chain.build"):
            state = build_chain(blocks)
        expect("utxos", len(state.utxos), exp.utxos)
        expect("spent outputs", len(state.spent_log), len(exp.lifespans))

        tip = len(blocks) - 1
        with tr.span("analytics.lifespan"):
            cdf = analytics.lifespan_cdf(state.spent_log, state.utxos, (0, tip), tip)
            pcts = [analytics.percentile(cdf, p) for p in LIFESPAN_PERCENTILES]
        with tr.span("analytics.composition"):
            pre, _post = analytics.composition_breakdown(blocks)
        with tr.span("analytics.dedup"):
            dedup_stats = analytics.script_dedup_stats(blocks)
        with tr.span("analytics.dormancy"):
            dormancy = analytics.dormancy_stats(state.utxos, DORMANCY_BUCKET_WIDTH, len(blocks))
        expect("percentiles", [p if p is not None else "unreachable" for p in pcts],
               [exp.percentile(p) for p in LIFESPAN_PERCENTILES])
        expect("composition", pre.totals, exp.composition)
        expect("repeated output scripts", dedup_stats.output_side.duplicated_distinct,
               sum(1 for n in exp.output_scripts.values() if n >= 2))
        expect("heights with utxos", dormancy.blocks_with_utxo,
               sum(1 for c in exp.utxo_heights.values() if c))

        slack_stats = strategies.SlackStats()
        with tr.span("strategies.slack_encode"):
            packed = [
                [strategies.slack_encode(tx, state.index, slack_stats) for tx in b.transactions]
                for b in blocks
            ]
        with tr.span("strategies.slack_decode"):
            unpacked = [[strategies.slack_decode(p, state.index)[0] for p in block_packed] for block_packed in packed]
        expect("slack round trip", all(body.endswith(b"".join(txs)) for body, txs in zip(exp.bodies, unpacked)), True)

        unspent = {op.tx_hash for op in state.utxos}
        keep_flags = [[t in unspent for t in block_ids] for block_ids in ids]
        with tr.span("strategies.minimize"):
            minimized = [
                strategies.minimize_block(b, flags_, raw) for b, flags_, raw in zip(blocks, keep_flags, raws)
            ]
        copaths = [mb for mb in minimized if mb.mode == "copath"]
        kept = sum(len(mb.kept) for mb in copaths)
        with tr.span("strategies.dedup_plan"):
            plan = strategies.dedup_scripts(blocks)

        models = {}
        for label in MODEL_LABELS:
            config = config_for_label(label, len(blocks))
            with tr.span(f"store.model.{label}"):
                models[label] = store.build_store_model(blocks, state, config)
        baseline = models["baseline"].retained_bytes
        for label, model in models.items():
            if model.retained_bytes > baseline:
                problems.append(f"traced run: model {label} is larger than the baseline")

        config = config_for_flags(flags)
        model = models[config.label()]
        with tr.span("store.serialize"):
            sizes = [len(model.spine_bytes()), len(model.bodies_bytes()), len(model.kvs_bytes())]
            model.manifest_text()
        with tr.span("store.write"):
            store.write_store(model, store_dir)
        with tr.span("store.read"):
            view = store.read_store(store_dir)
        with tr.span("store.decode"):
            content = store.decode_store_content(view)
        with tr.span("store.verify"):
            report = store.integrity_check(store_dir)
        with tr.span("store.estimate"):
            estimate = store.estimate_footprint(blocks, state, config)
        expect("integrity check passed", report.passed, True)
        expect("decoded full blocks", all(raw == exp.bodies[h] for h, raw in content.block_bytes.items()), True)
        expect("estimate equals the model", estimate.rows[-1].retained_bytes, sum(sizes))

    kinds = [rec.kind for rec in model.bodies]
    counts = {
        "wire.txs": n_txs,
        "chain.utxos": len(state.utxos),
        "chain.spent": len(state.spent_log),
        "strategies.slack_compact_ratio": slack_stats.compact / slack_stats.txs if slack_stats.txs else 0.0,
        "strategies.copath_nodes_per_kept_tx": sum(len(mb.nodes) for mb in copaths) / kept if kept else 0.0,
        "strategies.dedup_rewritten": plan.rewritten_scripts,
        "store.raw_records": kinds.count(store.KIND_RAW),
        "store.compact_records": kinds.count(store.KIND_COMPACT),
        "store.minimized_records": kinds.count(store.KIND_MINIMIZED),
        "store.dedup_effective": int(model.dedup_effective),
    }
    return counts, problems
