"""Set-up probe: the work a user pays for before any computation starts.

Run as a fresh interpreter by ``run.py``:

    python3 bench/setup_probe.py '<JSON list of number specs>'

It imports littlewood (numpy included) from the checkout's ``src``,
parses every number spec and runs continued-fraction period detection on
it, then prints ``time.perf_counter()``.  The parent subtracts the moment
it started the process, so interpreter start-up counts as set-up too.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def ready_numbers(lw, specs):
    """Parse each spec (mapped to its fractional part, as the CLI's
    ``--frac`` does) and detect its continued-fraction period."""
    numbers = []
    for text in specs:
        spec = lw.parse_number_spec(text, frac=True)
        spec.value()
        lw.cf_expand(spec, 1)
        numbers.append(spec)
    return numbers


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import littlewood

    ready_numbers(littlewood, json.loads(sys.argv[1]))
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
