"""Seeded input files for the `coauthor` and `sparse` workloads.

Both generators use numpy only, never ``gossipnet.generate``, so a change to
the package's own generators cannot change what the analyze workloads read.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# coauthor: events over a population of people on a ring, each event led by
# an active person and staffed from that person's neighbourhood on the ring
COAUTHOR_PEOPLE = 10_000
COAUTHOR_EVENTS = 10_000
COAUTHOR_TEAM_SIZES = (2, 10)
COAUTHOR_CIRCLE = (5, 150)  # circle half-width range, scaled with activity
COAUTHOR_CIRCLE_PER_EVENT = 1.0  # half-width per expected event led
COAUTHOR_ZIPF = 0.8  # lead activity ~ rank ** -COAUTHOR_ZIPF
COAUTHOR_REPEAT = 0.4  # share of events that rerun an earlier team

# sparse: distinct random pairs, so almost no triangles
SPARSE_IDS = 67_000
SPARSE_PAIRS = 100_000
SPARSE_WEIGHTS = (1, 5)


def coauthor_events(seed: int) -> list[list[int]]:
    """Teams of person ids, one list per event, in event order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    activity = np.arange(1, COAUTHOR_PEOPLE + 1, dtype=float) ** -COAUTHOR_ZIPF
    activity = rng.permutation(activity / activity.sum())
    leads = rng.choice(COAUTHOR_PEOPLE, size=COAUTHOR_EVENTS, p=activity)
    sizes = rng.integers(COAUTHOR_TEAM_SIZES[0], COAUTHOR_TEAM_SIZES[1] + 1, size=COAUTHOR_EVENTS)
    repeat = rng.random(COAUTHOR_EVENTS) < COAUTHOR_REPEAT
    # active leads work with a wider circle, which makes the hubs
    expected = activity * COAUTHOR_EVENTS * (1.0 - COAUTHOR_REPEAT)
    circle = np.clip(np.rint(COAUTHOR_CIRCLE_PER_EVENT * expected), *COAUTHOR_CIRCLE).astype(int)
    teams: list[list[int]] = []
    for e in range(COAUTHOR_EVENTS):
        if repeat[e] and teams:
            teams.append(teams[int(rng.integers(len(teams)))])
            continue
        lead = int(leads[e])
        width = int(circle[lead])
        picks = rng.choice(2 * width, size=int(sizes[e]) - 1, replace=False)
        # slots 0 .. 2w-1 are the offsets -w .. -1, 1 .. w
        teams.append([lead] + [int((lead + p - width + (p >= width)) % COAUTHOR_PEOPLE) for p in picks])
    return teams


def write_coauthor(path: Path, seed: int) -> list[list[int]]:
    """Write the bipartite ``<event> <person>`` file and return the teams."""
    teams = coauthor_events(seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e, team in enumerate(teams):
            fh.writelines(f"e{e} p{p}\n" for p in team)
    return teams


def sparse_edges(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, weight) arrays of distinct unordered pairs, a != b."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    draw = rng.integers(0, SPARSE_IDS, size=(2 * SPARSE_PAIRS, 2))
    draw = draw[draw[:, 0] != draw[:, 1]]
    lo, hi = draw.min(axis=1), draw.max(axis=1)
    _, first = np.unique(lo * SPARSE_IDS + hi, return_index=True)
    keep = np.sort(first)[:SPARSE_PAIRS]
    if keep.size != SPARSE_PAIRS:
        raise RuntimeError("sparse generator drew too few distinct pairs")
    w = rng.integers(SPARSE_WEIGHTS[0], SPARSE_WEIGHTS[1] + 1, size=SPARSE_PAIRS)
    return draw[keep, 0], draw[keep, 1], w


def write_sparse(path: Path, seed: int) -> list[tuple[str, str, float]]:
    """Write the ``n<id> n<id> <weight>`` edge list and return its records."""
    a, b, w = sparse_edges(seed)
    records = [(f"n{x}", f"n{y}", float(z)) for x, y, z in zip(a.tolist(), b.tolist(), w.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{x} {y} {int(z)}\n" for x, y, z in records)
    return records
