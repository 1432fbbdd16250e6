"""Package metadata and install entry point.

This file is the whole build configuration (the repository has no
``pyproject.toml``).  ``pip install -e .`` installs the package in editable
mode; on offline machines whose pip/setuptools tool-chain lacks the ``wheel``
package it falls back to the legacy ``setup.py develop`` path, and
``python setup.py develop`` works directly.  Running from a checkout needs no
install at all: ``PYTHONPATH=src python -m repro``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "SGCN (HPCA 2023) reproduction: compressed-sparse features for deep "
        "GCN accelerators"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    entry_points={
        "console_scripts": [
            "repro=repro.experiments.cli:main",
        ],
    },
)
