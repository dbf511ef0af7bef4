"""Sessionization pipeline: a chain join over clickstream-style data.

The workload the paper's introduction motivates: chains of one-to-many
relationships (users -> sessions -> events -> pages) whose intermediate
joins can dwarf both input and output.  This script builds such a skewed
chain, shows why the classic Yannakakis algorithm's join *order* suddenly
matters in MPC (paper Section 4.1 / Figure 3), and how the Section 4.2/5.1
heavy-light decomposition sidesteps the problem.

Run:  python examples/log_pipeline.py
"""

import random

from repro import Hypergraph, mpc_join
from repro.data.instance import Instance
from repro.data.relation import Relation

P = 16
rng = random.Random(42)

# users(uid, region) -> sessions(uid, sid) -> events(sid, url)
query = Hypergraph(
    {
        "users": ("region", "uid"),
        "sessions": ("uid", "sid"),
        "events": ("sid", "url"),
    },
    name="clickstream",
)

# A few "bot" users generate most sessions; most sessions are short, but
# bot sessions fire thousands of events: the classic power-law shape.
users = []
sessions = []
events = []
for uid in range(800):
    users.append((f"r{uid % 10}", f"u{uid}"))
    n_sessions = 40 if uid < 8 else rng.randint(1, 3)  # 8 bot users
    for s in range(n_sessions):
        sid = f"u{uid}s{s}"
        sessions.append((f"u{uid}", sid))
        n_events = 120 if uid < 8 else rng.randint(1, 4)
        for e in range(n_events):
            events.append((sid, f"/page{rng.randrange(50)}"))

instance = Instance(
    query,
    {
        "users": Relation("users", ("region", "uid"), users),
        "sessions": Relation("sessions", ("uid", "sid"), sessions),
        "events": Relation("events", ("sid", "url"), events),
    },
)
print(f"IN = {instance.input_size} tuples, OUT = {instance.output_size()} results")

# --- The two Yannakakis orders ------------------------------------------
plans = {
    "(users*sessions)*events": ("users", "sessions", "events"),
    "(sessions*events)*users": ("sessions", "events", "users"),
}
print(f"\nYannakakis on p={P} servers: the join order changes the load")
for name, plan in plans.items():
    res = mpc_join(query, instance, p=P, algorithm="yannakakis", plan=plan)
    print(f"  {name:28s} load = {res.report.load:>7}")

# --- The paper's output-optimal algorithm --------------------------------
res = mpc_join(query, instance, p=P, algorithm="line3", validate=True)
print(f"  {'line3 heavy/light (Sec 4.2)':28s} load = {res.report.load:>7}")

# --- Business question: events per region (a join-aggregate query) -------
from repro import COUNT, mpc_join_aggregate

annotated = instance.with_uniform_annotations(COUNT)
agg = mpc_join_aggregate(query, {"region"}, annotated, COUNT, p=P)
print(f"\nevents per region (COUNT GROUP BY region), load = {agg.report.load}:")
for row, count in sorted(
    zip(agg.relation.rows, agg.relation.annotations), key=lambda kv: -kv[1]
)[:5]:
    print(f"  {row[0]:>4}: {count}")
print(
    "\nNote: the aggregate load is far below shipping the"
    f" {instance.output_size()} join results anywhere."
)
