"""Traced service launcher: install the timing wrappers, then run
``repro serve`` in this process; write the spans out at shutdown.

Usage: ``python perfbench/launch.py SPANS.json serve [repro serve args]``
(with the checkout's ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as repro_main
    from repro.obs.context import current_request_id

    recorder = spans.Recorder(current_request_id)
    recorder.install()
    try:
        return repro_main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
