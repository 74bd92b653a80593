import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqtilings

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    for name in sqtilings.__all__:
        getattr(sqtilings, name)  # AttributeError names a stale export
    assert len(set(sqtilings.__all__)) == len(sqtilings.__all__)
    assert "count_tables" in sqtilings.__all__


def test_import_and_dir_load_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = (
        "import sys, sqtilings\n"
        "print(sorted(set(sqtilings.__all__) - set(dir(sqtilings))))\n"
        "print(sorted(m for m in sys.modules if m.startswith('sqtilings')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n['sqtilings']\n"


def test_exports_are_the_defining_modules_objects():
    assert sqtilings.count_tables is sqtilings.series.count_tables
    for name in sqtilings.__all__:
        if name == "__version__":
            continue
        home = f"sqtilings.{sqtilings._HOME[name]}"
        value = getattr(sqtilings, name)
        assert value is getattr(sys.modules[home], name), name
        # a class or function is mapped to the module that defines it,
        # not to one that imports it
        assert getattr(value, "__module__", home) == home, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        sqtilings.no_such_export
