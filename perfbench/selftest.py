"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs the archive and squeeze command sequences on tiny chains and
expects no failure.  Then it flips one byte in the store that compact
wrote, and separately swaps in a wrong expected transaction count, and
expects each fault to be counted as a failed command without stopping
the run.  Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, squeeze_flags

TINY_BLOCKS = 40


def tiny(name: str):
    w = WORKLOADS[name]
    flags = squeeze_flags(TINY_BLOCKS) if name == "squeeze" else w.flags
    return dataclasses.replace(w, plan={**w.plan, "n_blocks": TINY_BLOCKS}, flags=flags)


def flip_store_byte(name: str, store: Path) -> None:
    if name == "compact":
        path = store / "bodies.bin"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))


def failed_commands(seq: dict) -> list:
    return [c["name"] for c in seq["commands"] if c["problems"]]


def main() -> int:
    if not (run.SRC / "ledgerpack" / "cli.py").is_file():
        print(f"error: no ledgerpack sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    launcher = run.Launcher()
    ok = True

    def report(case: str, seq: dict, want_failed: list) -> None:
        nonlocal ok
        got = failed_commands(seq)
        passed = got == want_failed
        ok &= passed
        print(f"{'ok ' if passed else 'BAD'} {case}: failed commands {got}, expected {want_failed}")

    try:
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            for name in ("archive", "squeeze"):
                workload = tiny(name)
                workdir = Path(tmp) / name
                workdir.mkdir()
                setup = run.ChainSetup(workload, 7, workdir)
                setup.generate()
                exp = setup.expected()

                seq = run.run_sequence(workload, workdir, exp, launcher)
                run.round_trip(seq, workdir, exp)
                report(f"{name} clean", seq, [])

                seq = run.run_sequence(workload, workdir, exp, launcher, tamper=flip_store_byte)
                run.round_trip(seq, workdir, exp)
                report(f"{name} one store byte flipped", seq, ["compact", "verify"])

            workload = tiny("archive")
            workdir = Path(tmp) / "archive"
            setup = run.ChainSetup(workload, 7, workdir)
            setup.generate()
            wrong = setup.expected()
            wrong.n_txs += 1
            seq = run.run_sequence(workload, workdir, wrong, launcher)
            report("archive wrong expected tx count", seq, ["parse"])
    finally:
        launcher.close()

    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
