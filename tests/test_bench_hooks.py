import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist(monkeypatch):
    # The traced benchmark run rebinds these names; a rename here would
    # break it without failing any other test.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for module, fns in workloads.TRACED.items():
        mod = importlib.import_module(f"cozero.{module}")
        for fn, _ in fns:
            assert callable(getattr(mod, fn, None)), f"cozero.{module}.{fn}"
