import importlib.resources
import importlib.util
from pathlib import Path

import pytest

from opfcuts.case_io import parse_case_file
from opfcuts.driver import RunConfig, cutplane


@pytest.fixture(scope="session")
def case14_path():
    ref = importlib.resources.files("opfcuts") / "data" / "case14.m"
    return str(ref)


@pytest.fixture(scope="session")
def case14(case14_path):
    return parse_case_file(case14_path)


@pytest.fixture(scope="session")
def tiler():
    """The benchmark's case tiler, perfbench/tiler.py."""
    spec = importlib.util.spec_from_file_location(
        "tiler", Path(__file__).resolve().parent.parent / "perfbench"
        / "tiler.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def cold_report(case14):
    """Shared default-configuration run on case14; reused across tests."""
    return cutplane(case14, RunConfig())
