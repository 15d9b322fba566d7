"""A fixed amount of pure-Python work that gauges the machine's current speed.

The benchmark runs this as a fresh process before and after every op and
scales the op's wall time by it (see run.py). Its work never changes: the
input is built from a constant seed, and nothing from gossipnet is imported,
so no change to the program can move its time. What moves it is the machine:
on a 2-vCPU VM of a shared host the same op ran up to 2x slower from one
minute to the next, and this script, which does the same kind of work as an
op (string-keyed dicts, set intersections over neighbourhoods, string
formatting) in a fresh interpreter, slowed down with it.

    python3 perfbench/gauge.py
"""

import random
import sys

PAIRS = 60_000
IDS = 36_000


def main() -> int:
    rng = random.Random(7)
    pairs = [(f"n{rng.randrange(IDS)}", f"n{rng.randrange(IDS)}") for _ in range(PAIRS)]
    adj: dict[str, dict[str, float]] = {}
    for a, b in pairs:
        if a != b:
            adj.setdefault(a, {})[b] = 1.0
            adj.setdefault(b, {})[a] = 1.0
    shared = 0
    for nbrs in adj.values():
        for v in nbrs:
            shared += len(nbrs.keys() & adj[v].keys())
    rows = [f"{u},{len(nbrs)},{sum(nbrs.values())}\n" for u, nbrs in adj.items()]
    return 0 if len(rows) == len(adj) and shared >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
