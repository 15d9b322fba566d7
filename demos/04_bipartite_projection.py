"""Build weighted co-occurrence networks from bipartite event data.

Events (papers, articles, scenes) list their members; the projection
connects members who shared an event. Two weighting schemes:

  count:  each shared event adds 1 to the pair weight
  newman: each event of size n adds 1/(n-1), so every member's strength
            grows by exactly 1 per event regardless of event size

Run with: python demos/04_bipartite_projection.py
"""

from gossipnet import project_count, project_newman, summarize

events = {
    "paper1": ["ana", "bo", "cy"],
    "paper2": ["ana", "bo"],
    "paper3": ["bo", "cy", "dee", "ed"],
    "paper4": ["ed"],
}

print("events:")
for name, members in events.items():
    print(f"  {name}: {', '.join(members)}")
print()

for scheme, project in (("count", project_count), ("newman", project_newman)):
    g = project(events)
    print(f"{scheme} projection: {g}")
    for a, b, w in sorted(g.edges(), key=lambda e: (str(e[0]), str(e[1]))):
        print(f"  {a:>4} -- {b:<4} weight {w:g}")
    strengths = ", ".join(f"{u}={g.strength(u):g}" for u in sorted(g.labels))
    print(f"  strengths: {strengths}")
    s = summarize(g)
    print(f"  spread: sigma={s.sigma:.3f}, beta={s.beta:.3f}")
    print()

print("both schemes share the same topology; only the weights (and hence "
      "the close-friend decisions behind beta) differ. 'ed' appears in one "
      "solo event and one shared event, so the newman scheme gives it "
      "strength 1.")
