"""Two threads run deep parses at once; exit status 0 only if both succeed.

One thread loops over 201-character ``arith_lexed`` inputs, each of which
``parse_complete`` hands to its own deep-stack worker.  Meanwhile a second
thread parses one 40001-character chain, which recurses far past the
inline recursion limit.  A worker that restores the process-wide limit
while the other is still deep makes the long parse fail with
``DepthExceeded``, or aborts the interpreter outright, so run this as a
separate process:

    PYTHONPATH=src python tests/two_deep_threads.py
"""

from __future__ import annotations

import sys
import threading

from pegkit.catalog import registry
from pegkit.engine import new_session, parse_complete


def main() -> int:
    grammar = registry()["arith_lexed"].grammar
    long_text = "1" + "+1" * 20000
    short_text = "1" + "+1" * 100
    long_done = threading.Event()
    errors: list[str] = []
    short_parses = 0

    def long_parse() -> None:
        try:
            node = parse_complete(new_session(grammar, long_text))
            if node.end != len(long_text):
                errors.append(f"long parse ended at {node.end}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"long parse: {exc!r}")
        finally:
            long_done.set()

    def short_parse_loop() -> None:
        nonlocal short_parses
        try:
            while not long_done.is_set():
                parse_complete(new_session(grammar, short_text))
                short_parses += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"short parse: {exc!r}")
            long_done.wait()

    threads = [
        threading.Thread(target=short_parse_loop, daemon=True),
        threading.Thread(target=long_parse, daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    if any(t.is_alive() for t in threads):
        errors.append("a thread did not finish within 300 s")
    for line in errors:
        print(line, file=sys.stderr)
    print(f"long parse {'failed' if errors else 'ok'}; {short_parses} short parses")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
