"""Print the seconds this fresh interpreter takes to import a fixed set of
standard-library modules.

The work is of the same kind as tbtl's set-up (unmarshal bytecode, run
module bodies, build classes and functions), but it never touches tbtl.
run.py samples it between jobs to measure how fast the shared machine runs
at that moment.
"""

from __future__ import annotations

import importlib
import time

MODULES = (
    "argparse", "json", "fractions", "dataclasses", "random", "decimal",
    "statistics", "email.message", "http.client", "xml.etree.ElementTree",
    "logging", "inspect", "typing", "datetime", "calendar", "pathlib",
    "tempfile", "shutil", "subprocess", "textwrap", "difflib", "pprint",
    "csv", "configparser", "zipfile", "tarfile", "unittest",
)


def main() -> None:
    start = time.perf_counter()
    for name in MODULES:
        importlib.import_module(name)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
