"""Set-up time of one run in a fresh interpreter.

Usage: python3 setup_probe.py <config>

Times ``import movingheat.cli``, then ``config.parse_run`` on the config,
then ``basis.project_initial``: everything a command does before its first
time step.  Prints one JSON object with the three phases and their sum.
"""

import json
import sys
import time

t0 = time.perf_counter()
import movingheat.cli  # noqa: E402,F401
from movingheat import basis, config  # noqa: E402

t1 = time.perf_counter()
setup = config.parse_run(sys.argv[1])
t2 = time.perf_counter()
basis.project_initial(setup.u0, setup.config.n, setup.config.domain)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "project_s": t3 - t2,
                  "setup_s": t3 - t0}))
