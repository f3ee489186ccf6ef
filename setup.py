"""Package metadata for ``repro``.

The library lives under ``src/repro``; NumPy is its only runtime dependency.
``pip install -e .`` installs it in development mode, and
``pip install -e . --no-use-pep517`` covers environments whose pip predates
PEP 660 editable wheels (e.g. offline boxes without the ``wheel`` package).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
