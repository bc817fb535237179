"""Three threads run deep parses at once; exit status 0 only if all succeed.

Every parse runs on its own thread and raises the process-wide recursion
limit, and pauses the cyclic garbage collector, for as long as it is
deep; both come back only when the last deep caller has left.  One
thread loops over 201-character ``arith_lexed`` inputs through
``parse_complete``, whose every call raises and restores the limit, and
checks inside a ``run_deep`` body that the collector is off.  Meanwhile
a second thread parses one 40001-character chain with
``parse_complete``, and a third forces the cells of 20001-character
chains with direct ``session.apply`` calls, which raise the limit only
by being the outermost application.  A caller that restores the limit
while another is still deep makes that parse fail with
``DepthExceeded``, or aborts the interpreter outright, so run this as a
separate process:

    PYTHONPATH=src python tests/two_deep_threads.py
"""

from __future__ import annotations

import gc
import sys
import threading

from pegkit.catalog import registry
from pegkit.engine import FAIL, new_session, parse_complete, run_deep


def main() -> int:
    grammar = registry()["arith_lexed"].grammar
    long_text = "1" + "+1" * 20000
    apply_text = "1" + "+1" * 10000
    short_text = "1" + "+1" * 100
    long_done = threading.Event()
    errors: list[str] = []
    short_parses = 0
    apply_parses = 0

    def long_parse() -> None:
        try:
            node = parse_complete(new_session(grammar, long_text))
            if node.end != len(long_text):
                errors.append(f"long parse ended at {node.end}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"long parse: {exc!r}")
        finally:
            long_done.set()

    def apply_loop() -> None:
        nonlocal apply_parses
        try:
            while True:
                out = new_session(grammar, apply_text).apply(grammar.start, 0)
                if out is FAIL or out.end != len(apply_text):
                    errors.append(f"direct apply returned {out!r}")
                    return
                apply_parses += 1
                if long_done.is_set():
                    return
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"direct apply: {exc!r}")

    def short_parse_then_collector_state() -> bool:
        parse_complete(new_session(grammar, short_text))
        return gc.isenabled()

    def short_parse_loop() -> None:
        nonlocal short_parses
        try:
            while not long_done.is_set():
                parse_complete(new_session(grammar, short_text))
                if run_deep(short_parse_then_collector_state):
                    errors.append("collector enabled inside a run_deep body")
                    break
                short_parses += 2
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"short parse: {exc!r}")
            long_done.wait()

    threads = [
        threading.Thread(target=short_parse_loop, daemon=True),
        threading.Thread(target=long_parse, daemon=True),
        threading.Thread(target=apply_loop, daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    if any(t.is_alive() for t in threads):
        errors.append("a thread did not finish within 300 s")
    elif not gc.isenabled():
        errors.append("collector still disabled after every thread joined")
    for line in errors:
        print(line, file=sys.stderr)
    print(
        f"long parse {'failed' if errors else 'ok'}; {short_parses} short parses; "
        f"{apply_parses} direct applies"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
