"""Set-up as a user of relbc pays it, run in a fresh interpreter.

Imports relbc (and its CLI), builds each field given as P:N and forces its
lazy tables with one operation, then prints one line so that the parent can
stop its clock.  run.py launches it with src/ on PYTHONPATH:

    python3 perfbench/setup_probe.py 2:8 2:16
"""

import sys

import relbc
import relbc.cli  # noqa: F401  (part of what a `relbc` call imports)

for arg in sys.argv[1:]:
    p, n = map(int, arg.split(":"))
    relbc.FieldSpec(p, n).mul(1, 1)
print("ready", flush=True)
