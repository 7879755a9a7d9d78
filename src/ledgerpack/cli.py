"""Command-line surface: parse, stats, compact, estimate, verify, genchain.

Reports go to stdout (CSV by default, line-delimited JSON with
--format ldjson); --output redirects them to a file.  Exit codes:
0 success, 1 data error (with a diagnostic on stderr), 2 usage error.

Each subcommand imports only the modules it runs: ``store`` and
``strategies`` inside the commands that build or read a store, and
``fixture`` inside ``genchain``, so ``parse`` and ``stats`` load none
of them.  Without a bytecode cache the interpreter compiles every
module it imports, on every start.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .analytics import (
    COMPOSITION_BUCKETS,
    SEGWIT_BOUNDARY,
    composition_breakdown,
    dormancy_stats,
    lifespan_cdf,
    percentile,
    script_dedup_stats,
)
from .chain import build_chain
from .errors import LedgerError
from .reporting import render_rows, write_output
from .wire import MAINNET_MAGIC, hash_hex, read_block_file


def _magic_int(text: str) -> int:
    try:
        value = int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"magic must be hex, got {text!r}")
    if not 0 <= value <= 0xFFFFFFFF:
        raise argparse.ArgumentTypeError("magic must fit in 32 bits")
    return value


def _int_pair(text: str) -> tuple:
    try:
        lo, _, hi = text.partition(",")
        return (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN,MAX integers, got {text!r}")


def _percentile_list(text: str) -> list:
    try:
        values = [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"percentiles must be floats, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("need at least one percentile")
    return values


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "ldjson"), default="csv", help="report format")
    p.add_argument("--output", metavar="PATH", help="write the report to a file instead of stdout")


def _add_chain_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("chain", help="block file to read")
    p.add_argument(
        "--magic",
        type=_magic_int,
        default=MAINNET_MAGIC,
        metavar="HEX",
        help="network magic of the block file (default f9beb4d9)",
    )


def _add_strategy_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--prune-blocks", type=int, metavar="N", help="prune bodies older than N blocks from tip"
    )
    group.add_argument(
        "--prune-quantile",
        type=float,
        metavar="P",
        help="derive the prune threshold from the lifespan CDF at quantile P",
    )
    p.add_argument("--minimize", action="store_true", help="keep only UTXO-bearing txs + proofs")
    p.add_argument("--slack", action="store_true", help="re-encode txs dropping slack bytes")
    p.add_argument(
        "--dedup-scripts",
        action="store_true",
        dest="dedup",
        help="move repeated scripts into a shared KVS when that saves bytes",
    )


def _strategy_config(args):
    from .strategies import PruneConfig, StrategyConfig

    prune = None
    if args.prune_blocks is not None:
        prune = PruneConfig("blocks", blocks=args.prune_blocks)
    elif args.prune_quantile is not None:
        prune = PruneConfig("quantile", quantile=args.prune_quantile)
    return StrategyConfig(prune=prune, minimize=args.minimize, slack=args.slack, dedup=args.dedup)


def _emit(args, rows, fieldnames, float_digits=None) -> None:
    write_output(render_rows(rows, fieldnames, args.format, float_digits), args.output)


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    blocks = read_block_file(args.chain, args.magic)
    state = build_chain(blocks)
    rows = [
        {"metric": "blocks", "value": len(blocks)},
        {"metric": "transactions", "value": sum(len(b.transactions) for b in blocks)},
        {"metric": "block_bytes", "value": sum(b.raw_size_bytes for b in blocks)},
        {"metric": "tip_height", "value": state.index.tip_height()},
        {
            "metric": "tip_hash",
            "value": hash_hex(state.index.tip_hash()) if blocks else "",
        },
        {"metric": "utxos", "value": len(state.utxos)},
        {"metric": "spent_outputs", "value": len(state.spent_log)},
    ]
    _emit(args, rows, ["metric", "value"])
    return 0


def cmd_stats(args) -> int:
    blocks = read_block_file(args.chain, args.magic)

    if args.report == "lifespan":
        state = build_chain(blocks)
        tip = len(blocks) - 1
        as_of = args.as_of if args.as_of is not None else tip
        lo = args.created_from
        hi = args.created_to if args.created_to is not None else as_of
        cdf = lifespan_cdf(state.spent_log, state.utxos, (lo, hi), as_of)
        rows = [
            {"metric": "spent", "value": len(cdf.lifespans)},
            {"metric": "dormant", "value": cdf.unspent_count},
            {"metric": "total", "value": cdf.total},
        ]
        for p in args.percentiles:
            value = percentile(cdf, p)
            rows.append(
                {
                    "metric": f"p{p * 100:g}",
                    "value": value if value is not None else "unreachable",
                }
            )
        _emit(args, rows, ["metric", "value"])
        return 0

    if args.report == "composition":
        pre, post = composition_breakdown(blocks, args.split_height)
        rows = []
        for epoch, comp in [("pre", pre), ("post", post), ("total", pre.merge(post))]:
            fractions = comp.fractions()
            for bucket in COMPOSITION_BUCKETS:
                rows.append(
                    {
                        "epoch": epoch,
                        "bucket": bucket,
                        "bytes": comp.totals[bucket],
                        "fraction": fractions[bucket],
                    }
                )
            rows.append(
                {"epoch": epoch, "bucket": "total", "bytes": comp.total_bytes, "fraction": 1.0 if comp.total_bytes else 0.0}
            )
        _emit(args, rows, ["epoch", "bucket", "bytes", "fraction"], {"fraction": 6})
        return 0

    if args.report == "dedup":
        stats = script_dedup_stats(blocks)
        rows = []
        for side, data in [("input", stats.input_side), ("output", stats.output_side)]:
            rows.append(
                {
                    "side": side,
                    "duplicated_distinct": data.duplicated_distinct,
                    "duplicated_occurrences": data.duplicated_occurrences,
                    "total_bytes": data.total_bytes,
                    "dedup_bytes": data.dedup_bytes,
                    "avg_len": data.avg_len,
                    "saved_bytes": data.saved_bytes,
                }
            )
        _emit(
            args,
            rows,
            [
                "side",
                "duplicated_distinct",
                "duplicated_occurrences",
                "total_bytes",
                "dedup_bytes",
                "avg_len",
                "saved_bytes",
            ],
            {"avg_len": 2},
        )
        return 0

    # dormancy
    state = build_chain(blocks)
    stats = dormancy_stats(state.utxos, args.bucket_width, len(blocks))
    rows = []
    for i, count in enumerate(stats.buckets):
        lo = i * stats.bucket_width
        hi = min((i + 1) * stats.bucket_width, stats.n_blocks) - 1
        rows.append({"row": f"bucket_{i}", "height_lo": lo, "height_hi": hi, "utxos": count})
    rows.append(
        {
            "row": "blocks_with_utxo",
            "height_lo": 0,
            "height_hi": max(stats.n_blocks - 1, 0),
            "utxos": stats.blocks_with_utxo,
        }
    )
    _emit(args, rows, ["row", "height_lo", "height_hi", "utxos"])
    return 0


def cmd_estimate(args) -> int:
    from .store import estimate_footprint

    blocks = read_block_file(args.chain, args.magic)
    config = _strategy_config(args)
    report = estimate_footprint(blocks, config=config, magic=args.magic)
    rows = [
        {
            "strategy": row.strategy,
            "bytes": row.retained_bytes,
            "reduction_percent": row.reduction_percent,
        }
        for row in report.rows
    ]
    _emit(args, rows, ["strategy", "bytes", "reduction_percent"], {"reduction_percent": 2})
    return 0


def cmd_compact(args) -> int:
    from .store import build_store_model, write_store

    blocks = read_block_file(args.chain, args.magic)
    config = _strategy_config(args)
    model = build_store_model(blocks, config=config, magic=args.magic)
    write_store(model, args.store)
    rows = [
        {"metric": "store", "value": args.store},
        {"metric": "strategy", "value": config.label()},
        {"metric": "tip", "value": model.tip},
        {"metric": "keep_from", "value": model.keep_from},
        {
            "metric": "prune_threshold",
            "value": model.prune_threshold if model.prune_threshold is not None else "",
        },
        {"metric": "body_records", "value": len(model.bodies)},
        {"metric": "dedup_effective", "value": int(model.dedup_effective)},
        {"metric": "spine_bytes", "value": len(model.spine_bytes())},
        {"metric": "bodies_bytes", "value": len(model.bodies_bytes())},
        {"metric": "kvs_bytes", "value": len(model.kvs_bytes())},
        {"metric": "retained_bytes", "value": model.retained_bytes},
    ]
    if model.slack_stats is not None:
        stats = model.slack_stats
        rows += [
            {"metric": "slack_txs", "value": stats.txs},
            {"metric": "slack_compact", "value": stats.compact},
            {"metric": "slack_passthrough", "value": stats.passthrough},
            {"metric": "slack_bytes_in", "value": stats.bytes_in},
            {"metric": "slack_bytes_out", "value": stats.bytes_out},
        ]
    _emit(args, rows, ["metric", "value"])
    return 0


def cmd_verify(args) -> int:
    from .store import integrity_check

    report = integrity_check(args.store)
    rows = [
        {
            "check": c.name,
            "height": c.height if c.height is not None else "",
            "ok": int(c.ok),
            "detail": c.detail,
        }
        for c in report.checks
    ]
    _emit(args, rows, ["check", "height", "ok", "detail"])
    if not report.passed:
        print(f"verify: {len(report.failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_genchain(args) -> int:
    from .fixture import ChainPlan, gen_chain

    plan = ChainPlan(
        seed=args.seed,
        n_blocks=args.blocks,
        txs_per_block=args.txs_per_block,
        outs_per_tx=args.outs_per_tx,
        spend_kind=args.spend_kind,
        spend_p=args.spend_p,
        spend_lifespan=args.spend_lifespan,
        dormant_fraction=args.dormant_fraction,
        segwit_fraction=args.segwit_fraction,
        dup_rate=args.dup_rate,
        noncanonical_rate=args.noncanonical_rate,
        magic=args.magic,
    )
    data, truth = gen_chain(plan)
    with open(args.chain_out, "wb") as fh:
        fh.write(data)
    rows = [
        {"metric": "output", "value": args.chain_out},
        {"metric": "blocks", "value": plan.n_blocks},
        {"metric": "transactions", "value": truth.n_txs},
        {"metric": "bytes", "value": len(data)},
        {"metric": "utxos", "value": truth.utxo_count},
    ]
    _emit(args, rows, ["metric", "value"])
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgerpack",
        description="Measure a block-file ledger and shrink its local storage footprint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a block file and report counts")
    _add_chain_arg(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("stats", help="measurement reports over a block file")
    stats_sub = p.add_subparsers(dest="report", required=True)

    sp = stats_sub.add_parser("lifespan", help="UTXO lifespan CDF summary and percentiles")
    _add_chain_arg(sp)
    _add_report_flags(sp)
    sp.add_argument(
        "--percentiles",
        type=_percentile_list,
        default=[0.5, 0.9, 0.99],
        metavar="P1,P2,..",
        help="percentiles to report (default 0.5,0.9,0.99)",
    )
    sp.add_argument("--as-of", type=int, default=None, metavar="H", help="evaluation height (default tip)")
    sp.add_argument("--created-from", type=int, default=0, metavar="H", help="creation interval start")
    sp.add_argument("--created-to", type=int, default=None, metavar="H", help="creation interval end")
    sp.set_defaults(func=cmd_stats)

    sp = stats_sub.add_parser("composition", help="serialized byte share per field bucket")
    _add_chain_arg(sp)
    _add_report_flags(sp)
    sp.add_argument(
        "--split-height",
        type=int,
        default=SEGWIT_BOUNDARY,
        metavar="H",
        help=f"epoch boundary height (default {SEGWIT_BOUNDARY})",
    )
    sp.set_defaults(func=cmd_stats)

    sp = stats_sub.add_parser("dedup", help="script duplication accounting per side")
    _add_chain_arg(sp)
    _add_report_flags(sp)
    sp.set_defaults(func=cmd_stats)

    sp = stats_sub.add_parser("dormancy", help="current UTXOs by creation-height bucket")
    _add_chain_arg(sp)
    _add_report_flags(sp)
    sp.add_argument("--bucket-width", type=int, default=10, metavar="W", help="heights per bucket")
    sp.set_defaults(func=cmd_stats)

    p = sub.add_parser("estimate", help="exact footprint report without writing a store")
    _add_chain_arg(p)
    _add_strategy_flags(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compact", help="apply strategies and write a store directory")
    _add_chain_arg(p)
    p.add_argument("store", help="store directory to write")
    _add_strategy_flags(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("verify", help="integrity-check a store directory")
    p.add_argument("store", help="store directory to check")
    _add_report_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("genchain", help="generate a deterministic synthetic block file")
    p.add_argument("chain_out", metavar="output", help="block file to write")
    p.add_argument("--seed", type=int, default=1, help="generator seed")
    p.add_argument("--blocks", type=int, required=True, metavar="N", help="number of blocks")
    p.add_argument("--txs-per-block", type=int, default=5, metavar="N")
    p.add_argument("--outs-per-tx", type=_int_pair, default=(1, 3), metavar="MIN,MAX")
    p.add_argument("--spend-kind", choices=("geometric", "fixed"), default="geometric")
    p.add_argument("--spend-p", type=float, default=0.25, metavar="P")
    p.add_argument("--spend-lifespan", type=int, default=3, metavar="L")
    p.add_argument("--dormant-fraction", type=float, default=0.25, metavar="F")
    p.add_argument("--segwit-fraction", type=float, default=0.3, metavar="F")
    p.add_argument("--dup-rate", type=float, default=0.2, metavar="F")
    p.add_argument("--noncanonical-rate", type=float, default=0.0, metavar="F")
    p.add_argument("--magic", type=_magic_int, default=MAINNET_MAGIC, metavar="HEX")
    _add_report_flags(p)
    p.set_defaults(func=cmd_genchain)

    return parser


def main(argv=None) -> int:
    # A command builds many small objects and no reference cycles,
    # so the cyclic collector would only rescan an ever larger heap: run
    # the command without it and restore the caller's setting afterwards.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except (LedgerError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
