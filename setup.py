"""Packaging metadata for the ``repro`` distribution.

``pip install -e .`` or, with no network and no ``wheel``,
``python setup.py develop`` installs the package from ``src/``.  The
version is read from ``src/repro/_version.py``, so the distribution and
``repro.__version__`` cannot disagree.
"""

import pathlib

from setuptools import setup

_version: dict = {}
_version_file = pathlib.Path(__file__).parent / "src" / "repro" / "_version.py"
exec(_version_file.read_text(), _version)

setup(
    name="repro",
    version=_version["__version__"],
    python_requires=">=3.10",
    install_requires=["numpy"],
)
