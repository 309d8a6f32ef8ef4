"""sentibert's one runtime dependency is numpy: importing every module of
the package loads nothing outside the standard library beyond numpy's own
modules."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter, so that nothing this test session imported counts
PROBE = """
import importlib, json, pkgutil, sys
import numpy
before = set(sys.modules)
import sentibert
names = sorted(info.name for info in pkgutil.iter_modules(sentibert.__path__))
for name in names:
    importlib.import_module("sentibert." + name)
print(json.dumps({"modules": names, "loaded": sorted(set(sys.modules) - before)}))
"""

# numpy's compiled random module registers Cython's runtime under these names
CYTHON_RUNTIME = re.compile(r"_cython_\d+(_\d+)*|cython_runtime")


def test_every_module_imports_with_numpy_as_the_only_dependency():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, check=True, env=env)
    report = json.loads(probe.stdout)
    assert {"cli", "encoder", "tensor", "__main__"} <= set(report["modules"])
    outside = [
        name
        for name in report["loaded"]
        if name.split(".")[0] not in sys.stdlib_module_names | {"sentibert", "numpy"}
        and not CYTHON_RUNTIME.fullmatch(name)
    ]
    assert not outside, f"modules from outside the standard library and numpy: {outside}"
