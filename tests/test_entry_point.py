"""The process entry point, `python -m qfock.cli`, run as a child process.

run() ends a finished command with os._exit, after flushing stdout and
stderr itself: these tests hold each child's exit code, stdout bytes and
stderr to those of main() in-process, on outputs large enough to stay
buffered, and check the exit on a stdout closed early.  The children run
with buffered stdout, as from a shell pipe: PYTHONUNBUFFERED is removed
from their environment.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qfock import cli
from qfock.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"
CRYSTAL_DOT = ["crystal", "--e", "3", "--charge", "0,1,2", "--rank", "10", "--format", "dot"]


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _in_process(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.encode(), out.err


@pytest.mark.parametrize("argv, code", [
    (["decomp", "--e", "4", "--charge", "0,1", "--rank", "4"], 0),
    (["decomp", "--e", "3", "--l", "2", "--charge", "0,1", "--rank", "2"], 3),
    (["flotw-check", "--e", "4", "--charge", "0,1", "--mp", "2,x|-"], 2),
    (["decomp", "--e", "4", "--charge", "0,1"], 2),
    (["--help"], 0),
    (CRYSTAL_DOT, 0),
])
def test_process_matches_main(argv, code, capsys):
    proc = subprocess.run([sys.executable, "-m", "qfock.cli", *argv], env=_child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    got = (proc.returncode, proc.stdout, proc.stderr.decode())
    assert got == _in_process(argv, capsys)
    assert proc.returncode == code
    if argv == CRYSTAL_DOT:  # far more than a pipe's buffer: os._exit lost none of it
        assert len(proc.stdout) == 427514


def test_closed_stdout_ends_with_the_broken_pipe_code():
    proc = subprocess.Popen([sys.executable, "-m", "qfock.cli", *CRYSTAL_DOT], env=_child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.BROKEN_PIPE
    assert head == b"digraph cr" and err == b""
    assert cli.BROKEN_PIPE not in (0, 2, 3, 4)


def test_installed_script_runs_the_process_entry_point():
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1]
    assert scripts.splitlines()[0] == 'qfock = "qfock.cli:run"'


def _tracer_targets():
    """(module, function or method name) of each entry of the tracer's
    TARGETS, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {(module, attr.rsplit(".", 1)[-1])
                    for module, attr, *_ in ast.literal_eval(node.value)}
    raise AssertionError("no TARGETS in %s" % TRACER)


# one run of every command, then help and a refusal
EVERY_COMMAND = [
    ["--json", "decomp", "--e=4", "--charge=0,1", "--rank=4", "--format=json", "--keep-q"],
    ["semisimple", "--e=4", "--charge=0,1", "--rank=4"],
    ["uglov-set", "--e=4", "--charge=0,1", "--rank=2", "--format=json"],
    ["flotw-check", "--e=4", "--charge=0,1", "--mp=1|1"],
    ["crystal", "--e=4", "--charge=0,1", "--rank=2", "--format=json"],
    ["avalue", "--e=4", "--charge=0,1", "--rank=2", "--format=json"],
    ["straighten", "--e=4", "--l=2", "--s=0", "--indices=1,3", "--format=json"],
    ["bar", "--e=4", "--l=2", "--monomial=s=0; k=3", "--format=json"],
    ["canonical", "--e=4", "--charge=0,1", "--mp=2,1|1", "--keep-q"],
    ["--help"], ["decomp", "--help"], ["decomp", "--e=x"],
]


def test_import_loads_every_traced_module_and_no_json():
    # The perfbench tracer wraps functions in the namespaces that importing
    # qfock.cli loads, so those must load eagerly.  No command needs the
    # json package (the encoder comes from _json), nor argparse and the
    # gettext and locale modules it loads: the command line is read from
    # cli.COMMANDS.  Nor typing and the re and enum modules it loads, nor
    # __future__: every annotation in qfock is valid at run time, and
    # WedgeMonomial is a collections.namedtuple.
    code = ("import io, sys\n"
            "import qfock.cli\n"
            "loaded = sorted(sys.modules)\n"
            "sys.stdout = sys.stderr = io.StringIO()\n"
            "codes = [qfock.cli.main(argv) for argv in %r]\n"
            "sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__\n"
            "print(codes)\n"
            "print(' '.join(loaded) + '\\n' + ' '.join(sorted(sys.modules)))\n" % EVERY_COMMAND)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=_child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, on_import, after_commands = proc.stdout.splitlines()
    assert codes == str([0] * (len(EVERY_COMMAND) - 1) + [2])
    traced = {module for module, _name in _tracer_targets()}
    assert traced and not traced - set(on_import.split())
    assert not [m for m in after_commands.split()
                if m.split(".")[0] in ("json", "argparse", "gettext", "locale",
                                       "typing", "re", "enum", "__future__")]
