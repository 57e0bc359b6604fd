"""Package metadata: the repo's only packaging file.

The library's one runtime dependency is numpy.  The legacy path lets
fully offline environments without the ``wheel`` package still do an
editable install::

    pip install -e . --no-build-isolation

(pip falls back to ``setup.py develop`` when PEP 660 wheel building is
unavailable).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
