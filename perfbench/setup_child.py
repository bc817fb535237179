"""Set-up cost in a fresh interpreter: import pegkit, build the catalog
registry and load each named grammar from its shipped ``.peg`` text.

    python3 perfbench/setup_child.py SRC_DIR GRAMMAR...

Prints the elapsed seconds.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import pegkit

    pegkit.registry()
    for name in sys.argv[2:]:
        pegkit.load_grammar(pegkit.grammar_text(name))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
