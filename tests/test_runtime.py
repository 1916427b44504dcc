"""The runtime is the standard library alone: no module of the package may
import a third-party package, even one that happens to be installed. Each
subcommand loads only the modules it runs, and the README's library example
runs as written."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TESTDATA

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Imports every module of the package (cli imports the analysis modules only
# inside its subcommands, so each is imported by name) and prints the
# top-level modules that are not in the standard library.
_PROBE = """
import importlib, json, pkgutil, sys
import selfcite
for module in pkgutil.iter_modules(selfcite.__path__):
    importlib.import_module("selfcite." + module.name)
tops = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(tops - set(sys.stdlib_module_names))))
"""

# Runs a subcommand in process and prints the package modules it loaded and
# which of the heavy standard modules below it loaded: dataclasses and
# inspect (about 1 MB of RSS per process), and importlib.resources with the
# zipfile and tempfile it pulls in.
_HEAVY = ("dataclasses", "importlib.resources", "inspect", "tempfile", "zipfile")
_LOADED = f"""
import json, sys
from selfcite.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "selfcite"),
                  sorted(set({_HEAVY!r}).intersection(sys.modules))]))
"""


def _child(code, *argv, cwd=None):
    # -S skips the site module: site-packages is not on the path (importing
    # a third-party package fails) and no .pth hook puts its own modules
    # into sys.modules
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", "-c", code, *map(str, argv)], env=env,
                          cwd=cwd, capture_output=True, text=True)


def test_every_module_imports_only_the_standard_library():
    probe = _child(_PROBE)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == ["__main__", "selfcite"]


def _loaded_modules(command, out):
    probe = _child(_LOADED, command,
                   "--papers", TESTDATA / "fix1_papers.jsonl",
                   "--authors", TESTDATA / "fix1_authors.jsonl", "--out", out)
    assert probe.returncode == 0, probe.stderr
    code, modules, stdlib = json.loads(probe.stdout.splitlines()[-1])
    assert code == 0
    return modules, stdlib


def test_validate_loads_only_the_corpus_module(tmp_path):
    modules, _stdlib = _loaded_modules("validate", tmp_path)
    assert modules == ["selfcite", "selfcite.cli", "selfcite.corpus"]


def test_classify_loads_no_analysis_module(tmp_path):
    modules, _stdlib = _loaded_modules("classify", tmp_path)
    assert modules == [
        "selfcite", "selfcite.classify", "selfcite.cli", "selfcite.corpus", "selfcite.graph"]


# Only synth uses dataclasses, and simil and report read the stopword list
# with a plain open.
@pytest.mark.parametrize("command", ["validate", "classify", "metrics", "hindex",
                                     "simil", "report"])
def test_analysis_commands_load_no_dataclasses(tmp_path, command):
    _modules, stdlib = _loaded_modules(command, tmp_path)
    assert stdlib == []


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shutil.copy(TESTDATA / "fix1_papers.jsonl", tmp_path / "papers.jsonl")
    shutil.copy(TESTDATA / "fix1_authors.jsonl", tmp_path / "authors.jsonl")
    run = _child(example, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
