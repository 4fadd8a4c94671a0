"""The exported names, README's library sketch, and the layer boundaries the
traced benchmark wraps."""

import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import fbsde_lsmc

MODULES = sorted(m.name for m in pkgutil.iter_modules(fbsde_lsmc.__path__))
ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    obj = importlib.import_module(f"fbsde_lsmc.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_package_all_resolves():
    missing = [name for name in fbsde_lsmc.__all__ if not hasattr(fbsde_lsmc, name)]
    assert missing == []
    assert len(set(fbsde_lsmc.__all__)) == len(fbsde_lsmc.__all__)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_resolves(module_name):
    module = importlib.import_module(f"fbsde_lsmc.{module_name}")
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []


def test_readme_library_sketch_runs():
    # README's first python block, run as a reader would paste it: a renamed
    # or deleted public name breaks it here
    readme = (ROOT / "README.md").read_text()
    exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), {})


def test_trace_targets_and_counter_parameters_exist():
    # a counter reads the bound call arguments as a["<parameter>"]
    spans = _spans()
    assert spans.TARGETS
    for module_name, attr, count in spans.TARGETS:
        fn = _resolve(module_name, attr)
        assert callable(fn), f"{module_name}.{attr}"
        if count is None:
            continue
        params = set(inspect.signature(fn).parameters)
        read = set(re.findall(r'a\["(\w+)"\]', inspect.getsource(count)))
        assert read, f"counter of {module_name}.{attr} reads no argument"
        assert read <= params, f"{module_name}.{attr} lacks {sorted(read - params)}"
