"""ledgerpack benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is imported and
executed from ``src/`` next to this directory, nothing is installed.

With ``--trace 0`` the workload's CLI command sequence runs as child
processes, one at a time, repeatedly for ``--seconds`` seconds, and the
end-to-end metrics are medians over the repetitions.  With ``--trace 1``
the same chain goes through the traced in-process walk in ``layers.py``
instead and the per-layer metrics are printed.  Every command's output
is checked against the generator's ground truth; the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.  A fuller
report (plan, per-repetition samples, output digests, problems) is
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from checks import Expected, check_command, check_round_trip, store_file_sizes
from layers import MODEL_LABELS, Tracer, config_for_flags, walk
from workloads import WORKLOADS, command_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up repetitions are spread over the run rather than timed back to
# back, so that their median does not rest on one stretch of the host's speed.
SETUP_REPEATS = 9
MIN_SEQUENCES = 3
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


class Launcher:
    """The helper process, ``launch.py``, that runs every measured child, so
    that a child's peak RSS is its own and not this process's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, cwd: Path) -> tuple:
        """Run one child to completion: (seconds, peak RSS in MB, exit code, stdout).

        Its stderr stays in ``stderr.txt`` in ``cwd`` until the next child.
        """
        self.proc.stdin.write(json.dumps([argv, str(cwd), CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        seconds, rss_mb, code = json.loads(self.proc.stdout.readline())
        return seconds, rss_mb, code, (cwd / "stdout.bin").read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class ProbeFailed(RuntimeError):
    """No fixture seed passed the workload's size probe."""


def plan_seed(workload, seed: int) -> int:
    """The fixture seed for a benchmark seed, after the workload's size probe if any."""
    from ledgerpack.fixture import ChainPlan, gen_chain

    probe = workload.probe
    if probe is None:
        return seed
    for candidate in range(seed * 1000, seed * 1000 + 1000):
        plan = ChainPlan(seed=candidate, **workload.plan)
        _, prefix = gen_chain(dataclasses.replace(plan, n_blocks=probe.prefix_blocks))
        if not probe.prefix_utxos[0] <= prefix.utxo_count < probe.prefix_utxos[1]:
            continue
        _, truth = gen_chain(plan)
        if probe.txs[0] <= truth.n_txs < probe.txs[1]:
            return candidate
    raise ProbeFailed(f"no {workload.name} chain for seed {seed} passes the size probe")


class ChainSetup:
    """The workload's chain file, generated from the seed as often as asked.

    Each generation is timed, in seconds at the reference speed (``speed``),
    and must give the same bytes as the first.
    """

    def __init__(self, workload, seed: int, workdir: Path):
        from ledgerpack.fixture import ChainPlan

        self.plan = ChainPlan(seed=plan_seed(workload, seed), **workload.plan)
        self.path = workdir / "chain.dat"
        self.times: list = []
        self.wall_times: list = []
        self.problems: list = []
        self.data = self.truth = None

    def generate(self) -> None:
        from ledgerpack.fixture import gen_chain

        loop_before = speed.loop_seconds()
        start = time.perf_counter()
        data, truth = gen_chain(self.plan)
        with open(self.path, "wb") as fh:
            fh.write(data)
        seconds = time.perf_counter() - start
        self.wall_times.append(seconds)
        self.times.append(speed.scaled(seconds, loop_before, speed.loop_seconds()))
        if self.data is None:
            self.data, self.truth = data, truth
        elif data != self.data:
            self.problems.append("setup: the generator gave different bytes for the same plan")

    def expected(self) -> Expected:
        return Expected(self.data, self.truth, self.plan.n_blocks)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(SRC), env.get("PYTHONPATH", "")] if p)
    return env


def run_sequence(workload, workdir: Path, exp: Expected, launcher: Launcher, tamper=None) -> dict:
    """Run the workload's commands once, each checked and timed in seconds at
    the reference speed (``speed``); ``tamper(name, store)`` runs after each
    command, so a self-test can damage its output."""
    store = workdir / "store"
    label = config_for_flags(workload.flags).label()
    context: dict = {}
    commands = []
    loop_before = speed.loop_seconds()
    for args in workload.commands:
        name = command_name(args)
        if name == "compact":
            shutil.rmtree(store, ignore_errors=True)
        argv = [sys.executable, "-m", "ledgerpack.cli", *workload.argv(args)]
        wall, rss_mb, code, stdout = launcher.run(argv, workdir)
        loop_after = speed.loop_seconds()
        seconds = speed.scaled(wall, loop_before, loop_after)
        loop_before = loop_after
        try:
            problems = check_command(name, code, stdout.decode("utf-8", "replace"), exp, context, str(store), label)
        except Exception as exc:  # a malformed report is a failed command, not a crash
            problems = [f"{name}: checking the output raised {type(exc).__name__}: {exc}"]
        if code != 0:
            problems.append(f"{name} stderr: {(workdir / 'stderr.txt').read_text(errors='replace').strip()[-300:]}")
        commands.append({
            "name": name,
            "seconds": seconds,
            "wall_s": wall,
            "rss_mb": rss_mb,
            "problems": problems,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        })
        if tamper is not None:
            tamper(name, store)
    files = store_file_sizes(str(store)) if store.is_dir() else {}
    return {
        "commands": commands,
        "total_s": sum(c["seconds"] for c in commands),
        "wall_s": sum(c["wall_s"] for c in commands),
        "peak_rss_mb": max(c["rss_mb"] for c in commands),
        "store_bytes": sum(files.values()),
        "store_sha256": {
            name: hashlib.sha256((store / name).read_bytes()).hexdigest() for name in files
        },
    }


def round_trip(seq: dict, workdir: Path, exp: Expected) -> None:
    """Attach the store round-trip check to the sequence's compact command."""
    compact = next(c for c in seq["commands"] if c["name"] == "compact")
    try:
        compact["problems"] += check_round_trip(str(workdir / "store"), exp)
    except Exception as exc:  # an undecodable store is a failed compact, not a crash
        compact["problems"].append(f"round trip raised {type(exc).__name__}: {exc}")


def digests(seq: dict) -> dict:
    return {
        "stdout": [[c["name"], c["stdout_sha256"]] for c in seq["commands"]],
        "store": seq["store_sha256"],
    }


def check_byte_stable(seqs: list) -> None:
    """Every repetition must print and store the same bytes as the first."""
    first = seqs[0]
    for seq in seqs[1:]:
        for c0, c in zip(first["commands"], seq["commands"]):
            if c["stdout_sha256"] != c0["stdout_sha256"]:
                c["problems"].append(f"{c['name']}: output differs from the first repetition")
        if seq["store_sha256"] != first["store_sha256"]:
            compact = next(c for c in seq["commands"] if c["name"] == "compact")
            compact["problems"].append("compact: store files differ from the first repetition")


def measure(workload, setup: ChainSetup, workdir: Path, launcher: Launcher, seconds: float) -> tuple:
    """Repeat the command sequence for ``seconds``, generating the chain again
    at even intervals; (metrics, report)."""
    exp = setup.expected()
    # Compile the package's bytecode and warm the file cache outside the timing.
    launcher.run([sys.executable, "-c", "import ledgerpack.cli"], workdir)
    start_all = time.perf_counter()
    deadline = start_all + seconds
    seqs, durations = [], []
    while len(seqs) < MIN_SEQUENCES or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        seqs.append(run_sequence(workload, workdir, exp, launcher))
        durations.append(time.perf_counter() - start)
        if len(seqs) == 1:
            round_trip(seqs[0], workdir, exp)
        while (len(setup.times) < SETUP_REPEATS
               and (time.perf_counter() - start_all) / seconds >= len(setup.times) / SETUP_REPEATS):
            setup.generate()
    while len(setup.times) < SETUP_REPEATS:
        setup.generate()
    check_byte_stable(seqs)

    def median_of(name: str) -> float:
        return statistics.median(
            sum(c["seconds"] for c in s["commands"] if c["name"].split(".")[0] == name) for s in seqs
        )

    metrics = {
        "total_s": statistics.median(s["total_s"] for s in seqs),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in seqs),
        "store_ratio": seqs[0]["store_bytes"] / len(exp.data),
        "setup_s": statistics.median(setup.times),
    }
    # Single commands are reported beside the end-to-end metrics, not as
    # metrics with a bound: a command of a few tenths of a second spreads
    # by up to 0.1 of its median from run to run, even at the reference
    # speed, and not every workload runs every command.
    names = [c["name"].split(".")[0] for c in seqs[0]["commands"]]
    details = {f"{n}_s": median_of(n) for n in dict.fromkeys(names)}
    details["wall.total_s"] = statistics.median(s["wall_s"] for s in seqs)
    details["wall.setup_s"] = statistics.median(setup.wall_times)
    report = {"sequences": seqs, "digests": digests(seqs[0]), "command_times": details}
    return metrics, report


def measure_layers(workload, exp: Expected, workdir: Path, launcher: Launcher, seconds: float) -> tuple:
    """Repeat the traced walk for ``seconds``, then time interpreter start-up,
    all in seconds at the reference speed (``speed``); (metrics, problem lists
    of the failed items, items attempted, report)."""
    tracer = Tracer()
    chain, store = str(workdir / "chain.dat"), str(workdir / "trace-store")
    walls, traced, self_times = [], [], []
    counts, walk_problems = {}, []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        tracer.run_id += 1
        loop_before = speed.loop_seconds()
        start = time.perf_counter()
        counts, found = walk(tracer, chain, store, exp, workload.flags)
        walls.append(time.perf_counter() - start)
        factor = speed.scaled(1.0, loop_before, speed.loop_seconds())
        traced.append(walls[-1] * factor)
        self_times.append({name: t * factor for name, t in tracer.self_times(tracer.run_id).items()})
        walk_problems.append(found)
        shutil.rmtree(store, ignore_errors=True)

    def layer(span_name: str) -> float:
        return statistics.median(t[span_name] for t in self_times)

    metrics = {
        "wire.decode_s": layer("wire.decode"),
        "wire.decode_mb_s": statistics.median(len(exp.data) / 1e6 / t["wire.decode"] for t in self_times),
        "wire.txid_s": layer("wire.txid"),
        "wire.encode_s": layer("wire.encode"),
        "wire.merkle_s": layer("wire.merkle"),
        "chain.build_s": layer("chain.build"),
        "analytics.lifespan_s": layer("analytics.lifespan"),
        "analytics.composition_s": layer("analytics.composition"),
        "analytics.dedup_s": layer("analytics.dedup"),
        "analytics.dormancy_s": layer("analytics.dormancy"),
        "strategies.slack_encode_s": layer("strategies.slack_encode"),
        "strategies.slack_decode_s": layer("strategies.slack_decode"),
        "strategies.minimize_s": layer("strategies.minimize"),
        "strategies.dedup_plan_s": layer("strategies.dedup_plan"),
    }
    for label in MODEL_LABELS:
        metrics[f"store.model_s.{label.replace('+', '-')}"] = layer(f"store.model.{label}")
    for part in ("serialize", "write", "read", "decode", "verify", "estimate"):
        metrics[f"store.{part}_s"] = layer(f"store.{part}")
    startups = []
    loop_before = speed.loop_seconds()
    for _ in range(STARTUP_REPEATS):
        wall, _, code, _ = launcher.run([sys.executable, "-c", "import ledgerpack.cli"], workdir)
        loop_after = speed.loop_seconds()
        startups.append((speed.scaled(wall, loop_before, loop_after), code))
        loop_before = loop_after
    startup_problems = [["cli: importing ledgerpack.cli failed in a child interpreter"]
                        for _, code in startups if code != 0]
    metrics["cli.startup_s"] = statistics.median(s for s, _ in startups)
    metrics["trace.total_s"] = statistics.median(traced)
    # Recording is the only work tracing adds to a walk, so its overhead is
    # the spans one walk records times the measured cost of one span.  The
    # difference of two walk totals would drown it: on a shared two-core
    # machine the same walk varies by a tenth or more from one run to the next.
    metrics["trace.overhead_s"] = len(tracer.spans) / len(traced) * Tracer.span_cost()
    metrics.update(counts)
    report = {"walks": traced, "spans": tracer.as_records()}
    return metrics, walk_problems + startup_problems, len(walk_problems) + len(startups), report


def load_spec() -> dict:
    """BENCHMARK.json in the checkout: metric names, units and workload reasons."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ledgerpack" / "cli.py").is_file():
        print(f"error: no ledgerpack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed.pin_to_one_cpu()
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # started first, while this process is still small
    launcher = Launcher()
    try:
        try:
            setup = ChainSetup(workload, args.seed, workdir)
        except ProbeFailed as exc:
            # the program under test changed how its fixture draws chains;
            # that is a failed set-up, reported as such, not a crash
            print(f"# problem: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        setup.generate()
        exp = setup.expected()
        problems = []
        if args.trace:
            metrics, found, attempted, report = measure_layers(workload, exp, workdir, launcher, args.seconds)
            problems += [p for item in found for p in item]
            failed = sum(1 for item in found if item)
        else:
            metrics, report = measure(workload, setup, workdir, launcher, args.seconds)
            commands = [c for s in report["sequences"] for c in s["commands"]]
            problems += [p for c in commands for p in c["problems"]]
            attempted, failed = len(commands), sum(1 for c in commands if c["problems"])
        problems = setup.problems + problems
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report.update({
        "workload": workload.name,
        "why": why,
        "seed": args.seed,
        "fixture_seed": setup.plan.seed,
        "plan": workload.plan,
        "commands": workload.commands,
        "input_bytes": len(exp.data),
        "transactions": exp.n_txs,
        "setup_s": setup.times,
        "setup_wall_s": setup.wall_times,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    })
    with open(out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {workload.name} seed={args.seed}: {why}")
    print(f"# input {len(exp.data)} bytes, {exp.n_txs} txs; python {platform.python_version()}, nproc {os.cpu_count()}")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    if not args.trace:
        print(f"# fail_rate {failed / attempted} ratio")
        for name, value in report["command_times"].items():
            print(f"# {name} {value} s")
        combined = hashlib.sha256(json.dumps(report["digests"], sort_keys=True).encode()).hexdigest()
        print(f"# output digest {combined}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
