"""Regenerate the committed network fixtures and companion data files.

Run from the repository root:  python scripts/build_fixtures.py
All outputs are deterministic, so re-running never changes committed files.
"""
from __future__ import annotations

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from macrosim._files import write_table
from macrosim.fundamental import FdParams, ideal_speed
from macrosim.network import Intersection, Node, RoadEdge, RoadNetwork, save_network, validate
from macrosim.signals import IntersectionSignal, save_config

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def ring_network(prefix: str = "r", n_nodes: int = 8, edge_len: float = 120.0,
                 speed: float = 13.68, center=(0.0, 0.0), lanes: int = 1) -> tuple[list, list, list]:
    """A closed ring: n nodes on a circle, one-way edges, pass-through junctions."""
    radius = edge_len / (2.0 * math.sin(math.pi / n_nodes))
    nodes = [
        Node(
            id=f"{prefix}n{i}",
            x=round(center[0] + radius * math.cos(2 * math.pi * i / n_nodes), 3),
            y=round(center[1] + radius * math.sin(2 * math.pi * i / n_nodes), 3),
        )
        for i in range(n_nodes)
    ]
    edges = [
        RoadEdge(
            id=f"{prefix}e{i}",
            from_node=f"{prefix}n{i}",
            to_node=f"{prefix}n{(i + 1) % n_nodes}",
            length_m=edge_len,
            lanes=lanes,
            free_flow_speed=speed,
        )
        for i in range(n_nodes)
    ]
    intersections = [
        Intersection(
            id=f"{prefix}x{i}",
            node=f"{prefix}n{i}",
            incoming=(f"{prefix}e{(i - 1) % n_nodes}",),
            outgoing=(f"{prefix}e{i}",),
            turn_weights={(f"{prefix}e{(i - 1) % n_nodes}", f"{prefix}e{i}"): 1.0},
        )
        for i in range(n_nodes)
    ]
    return nodes, edges, intersections


def build_ring() -> RoadNetwork:
    nodes, edges, intersections = ring_network()
    return RoadNetwork(nodes, edges, intersections)


def build_cross() -> RoadNetwork:
    """One signalized 4-way crossing with entry and exit stubs on each arm."""
    arm = 150.0
    nodes = [
        Node("C", 0.0, 0.0),
        Node("N", 0.0, arm),
        Node("S", 0.0, -arm),
        Node("E", arm, 0.0),
        Node("W", -arm, 0.0),
    ]
    speed = 13.68
    edges = []
    for name in ("N", "S", "E", "W"):
        edges.append(RoadEdge(f"{name.lower()}_in", name, "C", arm, 1, speed))
        edges.append(RoadEdge(f"{name.lower()}_out", "C", name, arm, 1, speed))
    # straight-heavy splits; no U-turns
    opposite = {"n": "s", "s": "n", "e": "w", "w": "e"}
    left_of = {"n": "e", "s": "w", "e": "n", "w": "s"}
    weights = {}
    for d in ("n", "s", "e", "w"):
        right = opposite[left_of[d]]
        weights[(f"{d}_in", f"{opposite[d]}_out")] = 0.6
        weights[(f"{d}_in", f"{left_of[d]}_out")] = 0.15
        weights[(f"{d}_in", f"{right}_out")] = 0.25
    crossing = Intersection(
        id="X",
        node="C",
        incoming=("n_in", "s_in", "e_in", "w_in"),
        outgoing=("n_out", "s_out", "e_out", "w_out"),
        turn_weights=weights,
        signalized=True,
        group_a=("n_in", "s_in"),
        group_b=("e_in", "w_in"),
    )
    return RoadNetwork(nodes, edges, [crossing])


def build_twolights() -> RoadNetwork:
    """An east-west arterial through two signalized crossings with side streets."""
    nodes = [
        Node("J1", 0.0, 0.0),
        Node("J2", 300.0, 0.0),
        Node("W", -200.0, 0.0),
        Node("E", 500.0, 0.0),
        Node("N1", 0.0, 150.0),
        Node("S1", 0.0, -150.0),
        Node("N2", 300.0, 150.0),
        Node("S2", 300.0, -150.0),
    ]
    arterial, side = 13.68, 11.11
    edges = [
        RoadEdge("w_j1", "W", "J1", 200.0, 1, arterial),
        RoadEdge("j1_w", "J1", "W", 200.0, 1, arterial),
        RoadEdge("j1_j2", "J1", "J2", 300.0, 1, arterial),
        RoadEdge("j2_j1", "J2", "J1", 300.0, 1, arterial),
        RoadEdge("j2_e", "J2", "E", 200.0, 1, arterial),
        RoadEdge("e_j2", "E", "J2", 200.0, 1, arterial),
        RoadEdge("n1_j1", "N1", "J1", 150.0, 1, side),
        RoadEdge("j1_n1", "J1", "N1", 150.0, 1, side),
        RoadEdge("s1_j1", "S1", "J1", 150.0, 1, side),
        RoadEdge("j1_s1", "J1", "S1", 150.0, 1, side),
        RoadEdge("n2_j2", "N2", "J2", 150.0, 1, side),
        RoadEdge("j2_n2", "J2", "N2", 150.0, 1, side),
        RoadEdge("s2_j2", "S2", "J2", 150.0, 1, side),
        RoadEdge("j2_s2", "J2", "S2", 150.0, 1, side),
    ]

    def junction(jid, node, west_in, east_in, north_in, south_in, west_out, east_out, north_out, south_out):
        weights = {
            # arterial traffic mostly continues straight
            (west_in, east_out): 0.7, (west_in, north_out): 0.15, (west_in, south_out): 0.15,
            (east_in, west_out): 0.7, (east_in, north_out): 0.15, (east_in, south_out): 0.15,
            # side-street traffic mostly turns onto the arterial
            (north_in, south_out): 0.3, (north_in, east_out): 0.35, (north_in, west_out): 0.35,
            (south_in, north_out): 0.3, (south_in, east_out): 0.35, (south_in, west_out): 0.35,
        }
        return Intersection(
            id=jid,
            node=node,
            incoming=(west_in, east_in, north_in, south_in),
            outgoing=(west_out, east_out, north_out, south_out),
            turn_weights=weights,
            signalized=True,
            group_a=(west_in, east_in),
            group_b=(north_in, south_in),
        )

    intersections = [
        junction("J1", "J1", "w_j1", "j2_j1", "n1_j1", "s1_j1", "j1_w", "j1_j2", "j1_n1", "j1_s1"),
        junction("J2", "J2", "j1_j2", "e_j2", "n2_j2", "s2_j2", "j2_j1", "j2_e", "j2_n2", "j2_s2"),
    ]
    return RoadNetwork(nodes, edges, intersections)


def build_roadcats() -> RoadNetwork:
    """Four disjoint rings, one per road category (residential to highway)."""
    categories = [
        ("res", 8.33, (0.0, 0.0)),
        ("col", 11.11, (900.0, 0.0)),
        ("art", 13.68, (0.0, 900.0)),
        ("hwy", 16.67, (900.0, 900.0)),
    ]
    nodes, edges, intersections = [], [], []
    for prefix, speed, center in categories:
        n, e, i = ring_network(prefix=prefix, n_nodes=8, edge_len=120.0, speed=speed, center=center)
        nodes += n
        edges += e
        intersections += i
    return RoadNetwork(nodes, edges, intersections)


def write_speeds(path, rows, default=None):
    records = list(rows) + ([("*", default)] if default is not None else [])
    write_table(["edge_id", "speed_mps"], records, path)


def write_counters(path):
    """Synthetic 5-minute counter aggregates lying on the default curve plus 1% noise."""
    params = FdParams()
    rng = np.random.default_rng(42)
    rhos = np.linspace(0.004, 0.16, 40)
    records = []
    for rho in rhos:
        v = ideal_speed(params, float(rho)) * (1.0 + rng.normal(0.0, 0.01))
        count = rho * 300.0 * v
        records.append([300.0, round(count, 4), round(v, 4)])
    write_table(["interval_s", "count", "avg_speed_mps"], records, path)


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)

    ring = build_ring()
    cross = build_cross()
    twolights = build_twolights()
    roadcats = build_roadcats()
    for name, net in [("ring", ring), ("cross", cross), ("twolights", twolights), ("roadcats", roadcats)]:
        problems = validate(net)
        if problems:
            raise SystemExit(f"{name}: " + "; ".join(problems))
        save_network(net, FIXTURES / f"{name}.json")
        print(f"wrote fixtures/{name}.json ({len(net.edges)} edges, {net.total_cells} cells)")

    write_speeds(FIXTURES / "ring_init.csv", [], default=6.0)
    write_speeds(FIXTURES / "cross_init.csv", [], default=8.0)
    write_speeds(
        FIXTURES / "twolights_init.csv",
        [(eid, 8.0) for eid in ("w_j1", "j1_w", "j1_j2", "j2_j1", "j2_e", "e_j2")],
        default=7.0,
    )
    # heterogeneous speeds around each ring exercise convection and anticipation
    rows = []
    for prefix, speed in (("res", 8.33), ("col", 11.11), ("art", 13.68), ("hwy", 16.67)):
        for i in range(8):
            factor = 0.55 if i % 2 == 0 else 0.72
            rows.append((f"{prefix}e{i}", round(speed * factor, 3)))
    write_speeds(FIXTURES / "roadcats_init.csv", rows)

    write_counters(FIXTURES / "counters.csv")

    save_config({"X": IntersectionSignal(red=30, green=20, offset=10)}, FIXTURES / "cross_lights.json")
    save_config(
        {
            "J1": IntersectionSignal(red=30, green=30, offset=0),
            "J2": IntersectionSignal(red=30, green=30, offset=15),
        },
        FIXTURES / "twolights_lights.json",
    )
    print("wrote init/counter/light companions")


if __name__ == "__main__":
    main()
