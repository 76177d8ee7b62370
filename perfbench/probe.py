"""Set-up probe: what every CLI call pays before its first check can run.

    python3 perfbench/probe.py

Imports the command line and the suite, builds the check catalog and prints
the monotonic clock; the parent subtracts the time it started this
interpreter.
"""

import time

from qaffine import cli, verify  # noqa: F401

verify.suite_checks()
print(repr(time.monotonic()))
