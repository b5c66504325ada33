"""Run the borelideals CLI and break its result on purpose, for the gate self-test.

    python3 perfbench/fault.py corrupt ideals A 2   # one stdout byte changed
    python3 perfbench/fault.py status ideals A 2    # right stdout, exit status 1
"""

import contextlib
import io
import sys

from borelideals import cli

mode, argv = sys.argv[1], sys.argv[2:]
sink = io.StringIO()
with contextlib.redirect_stdout(sink):
    status = cli.run(argv)
text = sink.getvalue()
if mode == "corrupt":
    text = text.replace("a", "b", 1)
elif mode == "status":
    status = 1
else:
    sys.exit(f"unknown fault mode {mode!r}")
sys.stdout.write(text)
sys.exit(status)
