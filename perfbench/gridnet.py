"""Deterministic N x N signalized grid network, built in memory.

Junction (i, j) sits at (i * link, j * link); i runs west to east and j
south to north. Neighbouring junctions are joined by two one-way links, and
every boundary junction gets an entry and an exit stub on each side that has
no neighbour, so each junction has four approaches and four exits. Turn
weights are 0.6 straight on and 0.2 for each turn, with no U-turns. At every
junction the east-west approaches form signal group A and the north-south
approaches group B.

At n = 8 with 150 m links this gives 288 edges of 15 cells (4,320 cells) and
64 signalized junctions.
"""
from __future__ import annotations

from macrosim.network import Intersection, Node, RoadEdge, RoadNetwork

STRAIGHT_WEIGHT = 0.6
TURN_WEIGHT = 0.2

# compass direction -> unit step (di, dj)
_STEP = {"e": (1, 0), "w": (-1, 0), "n": (0, 1), "s": (0, -1)}
_OPPOSITE = {"e": "w", "w": "e", "n": "s", "s": "n"}


def build_grid(n: int = 8, link_m: float = 150.0, speed_mps: float = 13.68) -> RoadNetwork:
    """The n x n grid; equal arguments give equal networks."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def junction(i: int, j: int) -> str:
        return f"j{i}_{j}"

    nodes = [Node(junction(i, j), i * link_m, j * link_m) for i in range(n) for j in range(n)]
    edges: list[RoadEdge] = []
    # per junction: direction the traffic comes from -> incoming edge id,
    # direction the traffic leaves towards -> outgoing edge id
    incoming: dict[str, dict[str, str]] = {junction(i, j): {} for i in range(n) for j in range(n)}
    outgoing: dict[str, dict[str, str]] = {junction(i, j): {} for i in range(n) for j in range(n)}

    for i in range(n):
        for j in range(n):
            here = junction(i, j)
            for side, (di, dj) in _STEP.items():
                ni, nj = i + di, j + dj
                if 0 <= ni < n and 0 <= nj < n:
                    there = junction(ni, nj)
                else:
                    there = f"b{side}{i}_{j}"
                    nodes.append(Node(there, ni * link_m, nj * link_m))
                    entry = f"{there}>{here}"
                    edges.append(RoadEdge(entry, there, here, link_m, 1, speed_mps))
                    incoming[here][side] = entry
                out = f"{here}>{there}"
                edges.append(RoadEdge(out, here, there, link_m, 1, speed_mps))
                outgoing[here][side] = out
                if there in incoming:
                    incoming[there][_OPPOSITE[side]] = out

    intersections = []
    for jid in sorted(incoming):
        ins, outs = incoming[jid], outgoing[jid]
        weights = {}
        for came_from, e_in in ins.items():
            heading = _OPPOSITE[came_from]
            for towards, e_out in outs.items():
                if towards == came_from:
                    continue  # no U-turns
                weights[(e_in, e_out)] = STRAIGHT_WEIGHT if towards == heading else TURN_WEIGHT
        intersections.append(
            Intersection(
                id=jid,
                node=jid,
                incoming=tuple(ins[d] for d in ("w", "e", "s", "n")),
                outgoing=tuple(outs[d] for d in ("w", "e", "s", "n")),
                turn_weights=weights,
                signalized=True,
                group_a=(ins["w"], ins["e"]),
                group_b=(ins["s"], ins["n"]),
            )
        )
    return RoadNetwork(nodes, edges, intersections)
