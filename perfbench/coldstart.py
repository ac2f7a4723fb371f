"""One cold start of a workload, for ``setup_s``.

Usage: ``python3 perfbench/coldstart.py <workload> <seed>``. Imports the
program, resolves the configs and builds the network, the relabelled day and
the algorithms, then stops before the first simulated period. It prints one
JSON line of ``time.monotonic()`` stamps, which the parent compares with the
stamp it took before starting this process.
"""

import json
import sys
import time

import env

env.use_checkout()
env.require_checkout_program()
import workloads  # noqa: E402  (imports numpy, scipy and evsched)

imported = time.monotonic()
workloads.prepare(sys.argv[1], int(sys.argv[2]))
built = time.monotonic()
print(json.dumps({"imported": imported, "built": built}))
