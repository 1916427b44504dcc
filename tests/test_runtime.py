"""The runtime is the standard library alone: no module of the package may
import a third-party package, even one that happens to be installed."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports every module of the package (cli imports kernel only inside a
# function) and prints the top-level modules that are not in the standard
# library.
_PROBE = """
import importlib, json, pkgutil, sys
import selfcite
for module in pkgutil.iter_modules(selfcite.__path__):
    importlib.import_module("selfcite." + module.name)
tops = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(tops - set(sys.stdlib_module_names))))
"""


def test_every_module_imports_only_the_standard_library():
    # -S skips the site module: site-packages is not on the path (importing
    # a third-party package fails) and no .pth hook puts its own modules
    # into sys.modules
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run([sys.executable, "-S", "-c", _PROBE], env=env,
                           capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == ["__main__", "selfcite"]
