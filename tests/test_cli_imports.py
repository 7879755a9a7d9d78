"""Each CLI subcommand loads only the modules it runs.

``parse`` and the ``stats`` reports never touch the store, the
strategies or the fixture generator, so neither importing
``ledgerpack.cli`` nor running them may load those modules: a child
interpreter without a bytecode cache compiles every module it imports.
``analytics`` loads only for ``stats`` and ``--prune-quantile``, not
for ``--dedup-scripts``, whose plan the store makes from its own script
counts, and ``json`` only for ``--format ldjson``.  Each
case runs in a fresh interpreter started without ``site``, because this
process has already imported them all.

The process entry, ``python -m ledgerpack.cli`` or the ``ledgerpack``
script, freezes the heap before shutdown; ``main`` called in-process
does not.  Exit must still run atexit hooks and flush every report.
"""

import contextlib
import gc
import io
import os
import pathlib
import subprocess
import sys

import pytest

from ledgerpack import cli
from ledgerpack.fixture import ChainPlan, gen_chain

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
STORE_SIDE = {"ledgerpack.store", "ledgerpack.strategies", "ledgerpack.fixture"}
ANALYTICS = "ledgerpack.analytics"
LEAN_FLAGS = ["--prune-blocks", "4", "--minimize", "--slack"]

# runs one command with its report sent to a file, then prints the
# modules the interpreter loaded, one a line
PROBE = """
import sys
from ledgerpack import cli
argv = sys.argv[1:]
if argv and cli.main(argv) != 0:
    sys.exit("command failed")
print("\\n".join(sorted(sys.modules)))
"""

# registers an atexit hook, then runs the CLI as ``__main__``
ATEXIT_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"atexit frozen={gc.get_freeze_count() > 0}", file=sys.stderr))
sys.argv = ["ledgerpack", *sys.argv[1:]]
runpy.run_module("ledgerpack.cli", run_name="__main__", alter_sys=True)
"""


def _child(args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _loaded_modules(argv) -> set:
    proc = _child(["-S", "-c", PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines())


def _in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain") / "chain.dat"
    path.write_bytes(gen_chain(ChainPlan(seed=7, n_blocks=12))[0])
    return str(path)


@pytest.fixture(scope="module")
def store(chain, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "store")
    assert _in_process(["compact", chain, path, *LEAN_FLAGS])[0] == 0
    return path


def test_importing_the_cli_loads_no_store_module():
    loaded = _loaded_modules([])
    assert "ledgerpack.cli" in loaded
    assert not loaded & STORE_SIDE
    assert not loaded & {ANALYTICS, "json"}


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


# (command, whether it loads analytics); {chain}, {store} and {out} are filled in
CSV_COMMANDS = [
    (["parse", "{chain}"], False),
    (["verify", "{store}"], False),
    (["estimate", "{chain}", *LEAN_FLAGS], False),
    (["compact", "{chain}", "{out}", *LEAN_FLAGS], False),
    (["genchain", "{out}", "--blocks", "3"], False),
    (["stats", "lifespan", "{chain}"], True),
    (["stats", "composition", "{chain}"], True),
    (["stats", "dedup", "{chain}"], True),
    (["stats", "dormancy", "{chain}"], True),
    (["estimate", "{chain}", "--prune-quantile", "0.3"], True),
    (["compact", "{chain}", "{out}", "--prune-quantile", "0.3"], True),
    (["estimate", "{chain}", "--dedup-scripts"], False),
    (["compact", "{chain}", "{out}", "--dedup-scripts"], False),
]


@pytest.mark.parametrize("command, analytics", CSV_COMMANDS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_analytics_loads_only_where_it_runs_and_csv_never_loads_json(chain, store, tmp_path, command, analytics):
    report = tmp_path / "report.csv"
    argv = [arg.format(chain=chain, store=store, out=str(tmp_path / "out")) for arg in command]
    loaded = _loaded_modules([*argv, "--output", str(report)])
    assert (ANALYTICS in loaded) == analytics
    assert "json" not in loaded
    assert report.stat().st_size > 0


@pytest.mark.parametrize("command", [["parse", "{chain}"], ["verify", "{store}"]], ids=" ".join)
def test_an_ldjson_report_loads_json(chain, store, tmp_path, command):
    report = tmp_path / "report.ldjson"
    argv = [arg.format(chain=chain, store=store) for arg in command]
    loaded = _loaded_modules([*argv, "--format", "ldjson", "--output", str(report)])
    assert "json" in loaded
    assert report.read_text(encoding="utf-8").startswith("{")


def test_main_in_process_leaves_the_heap_and_the_collector_as_they_were(chain):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            for argv in (["parse", chain], ["parse", chain + ".missing"], ["parse"]):
                _in_process(argv)
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize(
    "command, code",
    [(["parse", "{chain}"], 0), (["stats", "dormancy", "{chain}", "--bucket-width", "1"], 0),
     (["parse", "{chain}.missing"], 1), (["parse"], 2)],
    ids=["parse", "dormancy", "missing", "usage"],
)
def test_module_entry_exits_with_the_code_and_the_whole_report(chain, monkeypatch, command, code):
    monkeypatch.setenv("COLUMNS", "80")  # the same usage text in both processes
    argv = [arg.format(chain=chain) for arg in command]
    proc = _child(["-m", "ledgerpack.cli", *argv])
    assert proc.returncode == code
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv)


@pytest.mark.parametrize("command, code", [(["parse", "{chain}"], 0), (["parse", "{chain}.missing"], 1), (["parse"], 2)])
def test_exit_still_runs_atexit_hooks(chain, command, code):
    # os._exit would skip the hook and lose the buffered report
    argv = [arg.format(chain=chain) for arg in command]
    proc = _child(["-c", ATEXIT_PROBE, *argv])
    assert proc.returncode == code
    assert proc.stderr.endswith("atexit frozen=True\n")
    assert proc.stdout == _in_process(argv)[1]


def test_composition_help_names_the_segwit_default(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = _in_process(["stats", "composition", "--help"])
    assert code == 0
    assert "(default 481824)" in out


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["scripts"]["ledgerpack"] == "ledgerpack.cli:run"
