"""Set-up probe: ``import repro`` and construct a ``Session`` in a fresh interpreter.

Prints one JSON line: ``ready`` is ``time.monotonic()`` right after
``Session()`` returns (the parent subtracts its own ``time.monotonic()`` taken
just before starting this process, which is valid because Linux's monotonic
clock is system-wide) and ``import_s`` is the duration of ``import repro``.
The checkout's ``src`` must be on ``PYTHONPATH``; ``run.py`` sets it.
"""

import json
import time

_started = time.perf_counter()
import repro  # noqa: E402

_imported = time.perf_counter()
repro.Session()
print(json.dumps({"ready": time.monotonic(), "import_s": _imported - _started, "module": repro.__file__}))
