"""The package's version and import footprint."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import epsnet

PACKAGE_ROOT = Path(epsnet.__file__).resolve().parent.parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_is_the_pyproject_version():
    """pyproject.toml takes its version from ``epsnet.__version__``; the
    version a build would write is read back through setuptools."""
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls its table beta
        config = read_configuration(PYPROJECT)
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == epsnet.__version__


def test_cli_import_loads_no_metadata_scan_or_openssl():
    """``import epsnet.cli`` reads no installed-package metadata, which
    would pull ``importlib.metadata``, ``email`` and ``csv`` into every
    process, and initialises no OpenSSL: the input digest is CPython's own
    SHA-256."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, epsnet.cli; "
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('importlib.metadata', '_hashlib'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
