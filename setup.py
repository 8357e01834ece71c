"""Setuptools entry point: the one place the runtime dependencies are declared.

``pip install -e .`` (what CI runs) installs ``numpy`` and ``scipy`` from
``install_requires`` below; the test-only tools (``pytest``,
``pytest-benchmark``, ``hypothesis``) are installed alongside by the CI
jobs.  There is no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "CrAQR: crowdsensed data acquisition using multi-dimensional point "
        "processes (ICDE Workshops 2015 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7"],
)
