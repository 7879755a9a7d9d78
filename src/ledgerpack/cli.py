"""Command-line surface: parse, stats, compact, estimate, verify, genchain.

Reports go to stdout (CSV by default, line-delimited JSON with
--format ldjson); --output redirects them to a file.  Exit codes:
0 success, 1 data error (with a diagnostic on stderr), 2 usage error.

Each subcommand imports only the modules it runs: ``store`` and
``strategies`` inside the commands that build or read a store,
``fixture`` inside ``genchain``, ``analytics`` inside ``stats`` (and in
the store only for ``--prune-quantile``), and ``json`` only for an
ldjson report.  Without a bytecode cache the interpreter compiles
every module it imports, on every start.

:func:`run` is the process entry, for ``python -m ledgerpack.cli`` and
the ``ledgerpack`` script.  It freezes the heap after the command, so
the interpreter's shutdown does not walk every object; :func:`main`
leaves the heap alone for in-process callers.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import deque
from dataclasses import fields
from functools import partial
from operator import attrgetter

from .chain import ChainState
from .errors import LedgerError
from .reporting import render_rows, write_output
from .wire import MAINNET_MAGIC, SEGWIT_BOUNDARY, FrameIndex, decode_block, hash_hex, read_frames


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


def _connected(args, state: ChainState, frames: FrameIndex | None = None):
    """Yield each block of the chain file once it is decoded and connected
    to ``state``, recording its frame in ``frames`` if given; the first
    faulty frame in file order raises.  Only ``state`` outlives a block:
    a consumer that drops each block before taking the next holds one
    decoded block at a time."""
    with open(args.chain, "rb") as fh:
        for body, offset in read_frames(fh, args.magic):
            block = decode_block(body)
            state.connect(block)
            if frames is not None:
                frames.add(offset, body, block.header)
            yield block
            del block, body


def _build(args, config, build):
    """``build(blocks, chain state, config)`` over the chain file's frame
    index, which reads the file again while ``build`` runs; only its
    result outlives the call."""
    # only a quantile threshold reads the spends
    state = ChainState(spent_log=[] if config.prune and config.prune.mode == "quantile" else None)
    with open(args.chain, "rb") as fh:
        if not fh.seekable():  # fail before the connect pass reads it all
            raise OSError(f"{args.chain}: not seekable; this command reads the chain twice and needs a seekable file")
        frames = FrameIndex(fh)
        deque(_connected(args, state, frames), maxlen=0)
        return build(frames, state, config)


def _emit(args, rows, float_digits=None) -> None:
    write_output(render_rows(rows, args.format, float_digits), args.output)


def _emit_metrics(args, rows) -> None:
    """A metric,value report from its (metric, value) rows."""
    _emit(args, [{"metric": metric, "value": value} for metric, value in rows])


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    state = ChainState(spent_log=None)
    # map drops each block once it has its size, so one is alive at a time
    block_bytes = sum(map(attrgetter("raw_size_bytes"), _connected(args, state)))
    rows = [
        ("blocks", len(state.index.spine)),
        ("transactions", sum(map(len, state.index.txids))),
        ("block_bytes", block_bytes),
        ("tip_height", state.index.tip_height()),
        ("tip_hash", hash_hex(state.index.tip_hash()) if state.index.spine else ""),
        ("utxos", len(state.utxos)),
        ("spent_outputs", state.spends),
    ]
    _emit_metrics(args, rows)
    return 0


def cmd_stats(args) -> int:
    from .analytics import (
        COMPOSITION_BUCKETS,
        LifespanCdf,
        composition_breakdown,
        dormancy_stats,
        lifespan_cdf,
        percentile,
        script_dedup_stats,
    )

    # the report's one fold over the chain file; only lifespan reads the spends
    state = ChainState(spent_log=[] if args.report == "lifespan" else None)
    blocks = _connected(args, state)
    if args.report in ("lifespan", "dormancy"):
        deque(blocks, maxlen=0)  # holds no block it has passed

    if args.report == "lifespan":
        tip = state.index.tip_height()
        as_of = args.as_of if args.as_of is not None else tip
        lo = args.created_from
        hi = args.created_to if args.created_to is not None else as_of
        if tip < 0 and lo == 0 and args.created_to is None:
            # the default interval [0, tip] of a chain of no blocks holds no UTXO
            cdf = LifespanCdf([], 0, (lo, hi), as_of)
        else:
            cdf = lifespan_cdf(state.spent_log, state.utxos, (lo, hi), as_of)
        rows = [("spent", len(cdf.lifespans)), ("dormant", cdf.unspent_count), ("total", cdf.total)]
        for p in args.percentiles:
            value = percentile(cdf, p)
            rows.append((f"p{p * 100:g}", value if value is not None else "unreachable"))
        _emit_metrics(args, rows)
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
        _emit(args, rows, {"fraction": 6})
        return 0

    if args.report == "dedup":
        stats = script_dedup_stats(blocks)
        rows = [
            {
                "side": side,
                "duplicated_distinct": data.duplicated_distinct,
                "duplicated_occurrences": data.duplicated_occurrences,
                "total_bytes": data.total_bytes,
                "dedup_bytes": data.dedup_bytes,
                "avg_len": data.avg_len,
                "saved_bytes": data.saved_bytes,
            }
            for side, data in [("input", stats.input_side), ("output", stats.output_side)]
        ]
        _emit(args, rows, {"avg_len": 2})
        return 0

    # dormancy
    stats = dormancy_stats(state.utxos, args.bucket_width, len(state.index.spine))
    rows = []
    for i, count in enumerate(stats.buckets):
        lo = i * stats.bucket_width
        hi = min((i + 1) * stats.bucket_width, stats.n_blocks) - 1
        rows.append({"row": f"bucket_{i}", "height_lo": lo, "height_hi": hi, "utxos": count})
    rows.append(
        {
            "row": "blocks_with_utxo",
            "height_lo": 0,
            "height_hi": stats.n_blocks - 1,  # -1 on a chain of no blocks, as parse's tip_height
            "utxos": stats.blocks_with_utxo,
        }
    )
    _emit(args, rows)
    return 0


def cmd_estimate(args) -> int:
    from .store import estimate_footprint

    config = _strategy_config(args)
    report = _build(args, config, estimate_footprint)
    rows = [
        {
            "strategy": row.strategy,
            "bytes": row.retained_bytes,
            "reduction_percent": row.reduction_percent,
        }
        for row in report.rows
    ]
    _emit(args, rows, {"reduction_percent": 2})
    return 0


def cmd_compact(args) -> int:
    from .store import build_store_model, write_store

    config = _strategy_config(args)
    model = _build(args, config, partial(build_store_model, magic=args.magic))
    write_store(model, args.store)
    spine_bytes, bodies_bytes, kvs_bytes = model.sizes()
    rows = [
        ("store", args.store),
        ("strategy", config.label()),
        ("tip", model.tip),
        ("keep_from", model.keep_from),
        ("prune_threshold", model.prune_threshold if model.prune_threshold is not None else ""),
        ("body_records", len(model.bodies)),
        ("dedup_effective", int(model.dedup_effective)),
        ("spine_bytes", spine_bytes),
        ("bodies_bytes", bodies_bytes),
        ("kvs_bytes", kvs_bytes),
        ("retained_bytes", spine_bytes + bodies_bytes + kvs_bytes),
    ]
    if model.slack_stats is not None:
        stats = model.slack_stats
        rows += [
            ("slack_txs", stats.txs),
            ("slack_compact", stats.compact),
            ("slack_passthrough", stats.passthrough),
            ("slack_bytes_in", stats.bytes_in),
            ("slack_bytes_out", stats.bytes_out),
        ]
    _emit_metrics(args, rows)
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
    _emit(args, rows)
    if not report.passed:
        print(f"verify: {len(report.failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_genchain(args) -> int:
    from .fixture import ChainPlan, gen_chain

    # an option left out is None, so ChainPlan's own default applies
    given = {name: value for name, value in vars(args).items() if value is not None}
    plan = ChainPlan(**{f.name: given[f.name] for f in fields(ChainPlan) if f.name in given})
    data, truth = gen_chain(plan)
    with open(args.chain_out, "wb") as fh:
        fh.write(data)
    rows = [
        ("output", args.chain_out),
        ("blocks", plan.n_blocks),
        ("transactions", truth.n_txs),
        ("bytes", len(data)),
        ("utxos", truth.utxo_count),
    ]
    _emit_metrics(args, rows)
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
    p.add_argument(
        "--blocks", type=int, required=True, dest="n_blocks", metavar="N", help="number of blocks"
    )
    p.add_argument("--txs-per-block", type=int, metavar="N")
    p.add_argument("--outs-per-tx", type=_int_pair, metavar="MIN,MAX")
    p.add_argument("--spend-kind", choices=("geometric", "fixed"))
    p.add_argument("--spend-p", type=float, metavar="P")
    p.add_argument("--spend-lifespan", type=int, metavar="L")
    p.add_argument("--dormant-fraction", type=float, metavar="F")
    p.add_argument("--segwit-fraction", type=float, metavar="F")
    p.add_argument("--dup-rate", type=float, metavar="F")
    p.add_argument("--noncanonical-rate", type=float, metavar="F")
    p.add_argument("--magic", type=_magic_int, metavar="HEX")
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


def run() -> None:
    """The process entry: run :func:`main`, then exit with its code.

    Shutdown's collections would walk every object the command left and
    free nothing that module teardown does not; they skip a frozen heap.
    Exit still runs atexit hooks, flushes output and tears down modules.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
