import importlib.resources
import importlib.util
from pathlib import Path

import pytest

from opfcuts.case_io import parse_case, parse_case_file
from opfcuts.driver import RunConfig, cutplane


@pytest.fixture(scope="session")
def case14_path():
    ref = importlib.resources.files("opfcuts") / "data" / "case14.m"
    return str(ref)


@pytest.fixture(scope="session")
def case14(case14_path):
    return parse_case_file(case14_path)


@pytest.fixture(scope="session")
def case14_pwl(case14_path):
    """case14 with its first generator's cost piecewise linear, MATPOWER
    model 1: 0 $/h at 0 MW, 2500 at 100 MW and 12000 at 340 MW."""
    text = open(case14_path, encoding="utf-8").read()
    row = "\t2\t0\t0\t3\t0.0430293\t20\t0;"
    assert row in text
    return parse_case(text.replace(row, "\t1 0 0 3 0 0 100 2500 340 12000;",
                                   1), name="case14_pwl")


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
