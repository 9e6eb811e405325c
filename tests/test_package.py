"""The lazy `ffr` package: its names resolve from their layers on first
access, and the README's library example runs."""

import importlib
import re
from pathlib import Path

import pytest

import ffr

README = Path(__file__).parent.parent / "README.md"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_every_export_is_its_layer_object():
    for name in ffr.__all__:
        layer = importlib.import_module(f"ffr.{ffr._LAYER_OF[name]}")
        assert getattr(ffr, name) is getattr(layer, name), name
    assert len(set(ffr.__all__)) == len(ffr.__all__)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from ffr import *", namespace)
    assert set(ffr.__all__) <= set(namespace)
    assert set(ffr.__all__) <= set(dir(ffr))
    assert namespace["certify_exact"] is ffr.certify_exact


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ffr.no_such_name
    assert not hasattr(ffr, "_no_such_name")


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "False 2\n"


def test_version_matches_pyproject():
    # one version, stated twice: `ffr --version` prints the package's
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text,
                        re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert version == ffr.__version__
