"""Set-up probe, run in a fresh interpreter by run.py.

Imports hambypass from the checkout's src/, runs one one-draw scan and
prints {"import_s": ...} as its last stdout line. Arguments:

    probe.py cli <hambypass CLI arguments...>
    probe.py scan <n> <evaluator> <seed>     (for drivers with no CLI command)

Exits with the CLI's exit code.
"""

import contextlib
import io
import json
import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import hambypass  # noqa: E402
from hambypass import cli, verify  # noqa: E402

import_s = time.perf_counter() - t0

kind, *args = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if kind == "cli":
        rc = cli.main(args)
    else:
        n, evaluator, seed = args
        task = verify.EnumerationTask(
            n=int(n), mode="sample", sample_count=1, seed=int(seed), evaluator=evaluator
        )
        verify.enumerate_digraphs(task, workers=1)
        rc = 0
print(json.dumps({"import_s": import_s, "package": hambypass.__file__}))
sys.exit(rc)
