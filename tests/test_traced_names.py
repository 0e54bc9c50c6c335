"""The benchmark's traced run wraps program functions by name.

`perfbench/tracing.py` lists them in `TRACED` and looks each one up with
`getattr` when it installs its wrappers, so a renamed or deleted function
breaks `perfbench/run.py --trace 1`.  This test reads that list from the
file and checks every name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"cstar_index.{mod_name}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"cstar_index.{mod_name}.{func}"
