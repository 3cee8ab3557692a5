"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import delone_lab


@pytest.fixture
def cli_env():
    """Environment for a `python -m delone_lab.cli` subprocess.

    Its PYTHONPATH starts with the directory that holds the delone_lab package
    this process imported, so the child runs the same code whether the tests
    found it through PYTHONPATH, pytest's pythonpath setting or an install.
    """
    pkg_root = str(Path(delone_lab.__file__).resolve().parents[1])
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p),
    )
