"""Package metadata for ``repro``.

The library lives under ``src/``; the version is read from
``repro.__version__`` so it is declared in one place.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Projected frequency estimation: summaries, lower bounds and a "
        "sharded engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
