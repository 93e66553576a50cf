"""Road network model: directed edges, intersections, turn geometry.

A network is a set of nodes with planar coordinates, directed road edges
between them, and intersections that couple edge ends through turn weights.
Edges are discretized into cells of roughly 10 m for the finite-difference
solver; the ``length_m`` field from the network file is authoritative, node
coordinates only provide geometry for turn angles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._files import Fields, is_int, is_real, naming, read_json, write_json
from .fundamental import DEFAULT_A, DEFAULT_RHO_CR, FdParams

CELL_TARGET_M = 10.0
CELL_MIN_M = 5.0
CELL_MAX_M = 20.0
MAX_CELLS = 1_000_000  # cells of a network's layout at most, so a huge length is refused before any allocation
MAX_LANES = 16  # lanes of an edge at most: lanes multiply its flux into a junction, so a huge count is meaningless


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float


def cell_count_for(length_m: float) -> int:
    """Number of cells for an edge: length / 10 m rounded, at least 2."""
    return max(2, round(length_m / CELL_TARGET_M))


@dataclass(frozen=True)
class RoadEdge:
    """One directed road segment.

    lanes multiplies per-lane density into a vehicle flux; free_flow_speed is
    the speed of the empty road: the v_max of the edge's fundamental diagram
    and the speed clamp.
    """

    id: str
    from_node: str
    to_node: str
    length_m: float
    lanes: int
    free_flow_speed: float

    @property
    def cell_count(self) -> int:
        return cell_count_for(self.length_m)

    @property
    def cell_length(self) -> float:
        return self.length_m / self.cell_count


@dataclass(frozen=True)
class Intersection:
    """Coupling of incoming and outgoing edges at a node.

    turn_weights maps (incoming_edge, outgoing_edge) to a non-negative
    preference; rows are normalized on use, so only ratios matter. Signalized
    intersections split their incoming edges into two complementary groups
    that are never green at the same time.
    """

    id: str
    node: str
    incoming: tuple[str, ...]
    outgoing: tuple[str, ...]
    turn_weights: dict[tuple[str, str], float] = field(default_factory=dict)
    signalized: bool = False
    group_a: tuple[str, ...] = ()
    group_b: tuple[str, ...] = ()


def _by_id(kind: str, items) -> dict:
    by_id = {}
    for item in items:
        if item.id in by_id:
            raise ValueError(f"duplicate {kind} id {item.id!r}")
        by_id[item.id] = item
    return by_id


class RoadNetwork:
    """Immutable-after-load container for nodes, edges and intersections.

    rho_cr and a are the shape of the network's one speed-density curve; each
    edge's fundamental diagram is that shape at the edge's free_flow_speed.
    A repeated id, an edge length that is not finite and > 0 (the cell layout
    needs it), or a layout of more than MAX_CELLS cells raises ValueError.
    """

    def __init__(self, nodes, edges, intersections, rho_cr: float = DEFAULT_RHO_CR, a: float = DEFAULT_A):
        self.nodes: dict[str, Node] = _by_id("node", nodes)
        self.edges: dict[str, RoadEdge] = _by_id("edge", edges)
        self.intersections: dict[str, Intersection] = _by_id("intersection", intersections)
        self.rho_cr, self.a = rho_cr, a

        self.edge_order: tuple[str, ...] = tuple(sorted(self.edges))

        # cell layout: contiguous slice of the flat state arrays per edge
        self._slices: dict[str, slice] = {}
        offset = 0
        for eid in self.edge_order:
            length = self.edges[eid].length_m
            if not (is_real(length) and math.isfinite(length) and length > 0):
                raise ValueError(f"edge {eid}: length must be finite and > 0, got {length!r}")
            n = self.edges[eid].cell_count
            self._slices[eid] = slice(offset, offset + n)
            offset += n
            if offset > MAX_CELLS:
                raise ValueError(f"edge {eid}: the cell layout reaches {offset} cells, more than {MAX_CELLS}")
        self.total_cells: int = offset

        # which intersection feeds / drains each edge end
        self.upstream_of: dict[str, str] = {}
        self.downstream_of: dict[str, str] = {}
        for ix in self.intersections.values():
            for eid in ix.outgoing:
                self.upstream_of[eid] = ix.id
            for eid in ix.incoming:
                self.downstream_of[eid] = ix.id

    def __eq__(self, other):
        if not isinstance(other, RoadNetwork):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.intersections == other.intersections
            and (self.rho_cr, self.a) == (other.rho_cr, other.a)
        )

    def cell_slice(self, edge_id: str) -> slice:
        return self._slices[edge_id]

    def fd_for(self, edge_id: str) -> FdParams:
        """Fundamental diagram of an edge: the network's curve shape at the edge's free-flow speed."""
        return FdParams(self.edges[edge_id].free_flow_speed, self.rho_cr, self.a)

    def signalized_ids(self) -> tuple[str, ...]:
        return tuple(sorted(i for i, ix in self.intersections.items() if ix.signalized))


def validate(net: RoadNetwork) -> list[str]:
    """Check structural invariants; returns one message per violation."""
    problems: list[str] = []

    if not net.edges:
        problems.append("network has no edges")
    for name in ("rho_cr", "a"):
        value = getattr(net, name)
        if not (is_real(value) and math.isfinite(value) and value > 0):
            problems.append(f"fd_defaults.{name} must be finite and > 0, got {value!r}")

    placed = {}  # the nodes whose coordinates are finite numbers
    for node in net.nodes.values():
        if all(is_real(c) and math.isfinite(c) for c in (node.x, node.y)):
            placed[node.id] = node
        else:
            problems.append(f"node {node.id}: non-finite coordinates")

    for edge in net.edges.values():
        if edge.from_node not in net.nodes:
            problems.append(f"edge {edge.id}: unknown from node {edge.from_node}")
        if edge.to_node not in net.nodes:
            problems.append(f"edge {edge.id}: unknown to node {edge.to_node}")
        if edge.from_node == edge.to_node:
            problems.append(f"edge {edge.id}: from and to node coincide")
        if not is_int(edge.lanes):
            problems.append(f"edge {edge.id}: lanes must be an integer, got {edge.lanes!r}")
        elif not 1 <= edge.lanes <= MAX_LANES:
            problems.append(f"edge {edge.id}: lanes must be in [1, {MAX_LANES}], got {edge.lanes}")
        if not (is_real(edge.free_flow_speed) and math.isfinite(edge.free_flow_speed) and edge.free_flow_speed > 0):
            problems.append(f"edge {edge.id}: free_flow_speed must be finite and > 0")
        dx = edge.cell_length
        if not (CELL_MIN_M <= dx <= CELL_MAX_M):
            problems.append(
                f"edge {edge.id}: cell length {dx:.3f} m outside [{CELL_MIN_M}, {CELL_MAX_M}] m"
            )

    nodes_seen: dict[str, str] = {}
    for ix in net.intersections.values():
        if ix.node not in net.nodes:
            problems.append(f"intersection {ix.id}: unknown node {ix.node}")
        elif ix.node in nodes_seen:
            problems.append(
                f"intersection {ix.id}: node {ix.node} already used by intersection {nodes_seen[ix.node]}"
            )
        else:
            nodes_seen[ix.node] = ix.id

        for kind, eids, end, meets in (("incoming", ix.incoming, "to_node", "end at"),
                                       ("outgoing", ix.outgoing, "from_node", "start at")):
            for j, eid in enumerate(eids):
                if eid not in net.edges:
                    problems.append(f"intersection {ix.id}: unknown {kind} edge {eid}")
                elif getattr(net.edges[eid], end) != ix.node:
                    problems.append(f"intersection {ix.id}: {kind} edge {eid} does not {meets} node {ix.node}")
                if eids[:j].count(eid) == 1:  # a movement listed twice would be fed twice, creating vehicles
                    problems.append(f"intersection {ix.id}: {kind} edge {eid} is listed more than once")

        row_sums: dict[str, float] = {}
        for (e_in, e_out), w in ix.turn_weights.items():
            if e_in not in ix.incoming:
                problems.append(f"intersection {ix.id}: turn weight from non-incoming edge {e_in}")
            if e_out not in ix.outgoing:
                problems.append(f"intersection {ix.id}: turn weight to non-outgoing edge {e_out}")
            if not (is_real(w) and math.isfinite(w) and w >= 0):
                problems.append(f"intersection {ix.id}: turn weight ({e_in}, {e_out}) must be finite and >= 0")
            else:
                row_sums[e_in] = row_sums.get(e_in, 0.0) + w
        for e_in, total in row_sums.items():
            if total <= 0:
                problems.append(
                    f"intersection {ix.id}: turn weights from {e_in} are declared but sum to 0"
                )

        center = placed.get(ix.node)
        for (e_in, e_out), w in ix.turn_weights.items():
            # the solver caps every positive-weight movement's speed by its turn angle, which needs two rays; one whose
            # square underflows (under about 1e-162 m) counts as zero, so turn_angle's product of two is never 0
            if not (is_real(w) and w > 0 and center is not None and e_in in net.edges and e_out in net.edges):
                continue
            for end in (net.edges[e_in].from_node, net.edges[e_out].to_node):
                node = placed.get(end)
                ray = math.inf if node is None else math.hypot(node.x - center.x, node.y - center.y)
                if ray * ray == 0:
                    problems.append(
                        f"intersection {ix.id}: turn ({e_in}, {e_out}) has a zero-length ray: "
                        f"node {end} sits on junction node {ix.node}"
                    )

        if ix.signalized:
            set_a, set_b = set(ix.group_a), set(ix.group_b)
            if not set_a or not set_b:
                problems.append(f"intersection {ix.id}: signal groups must both be non-empty")
            if set_a & set_b:
                problems.append(f"intersection {ix.id}: signal groups overlap: {sorted(set_a & set_b)}")
            if set_a | set_b != set(ix.incoming):
                problems.append(f"intersection {ix.id}: signal groups must cover all incoming edges")

    return problems


def turn_angle(net: RoadNetwork, e_in: str, e_out: str) -> float:
    """Planar angle of the movement from ``e_in`` onto ``e_out``, in degrees.

    Measured between the ray from the junction node back toward e_in's
    upstream node and the ray toward e_out's downstream node: 180 deg is
    straight through, 90 deg a turn, 0 deg a U-turn.
    """
    if e_in not in net.edges or e_out not in net.edges:
        raise ValueError(f"unknown edge in turn ({e_in}, {e_out})")
    edge_in, edge_out = net.edges[e_in], net.edges[e_out]
    junction = net.intersections.get(net.downstream_of.get(e_in))
    if junction is None or e_out not in junction.outgoing:
        raise ValueError(f"edges {e_in} and {e_out} do not meet at a common intersection")

    center = net.nodes[junction.node]
    back = net.nodes[edge_in.from_node]
    ahead = net.nodes[edge_out.to_node]
    v1 = (back.x - center.x, back.y - center.y)
    v2 = (ahead.x - center.x, ahead.y - center.y)
    n1 = math.hypot(*v1)
    n2 = math.hypot(*v2)
    if n1 * n2 == 0:  # also two rays so short that the product of their lengths underflows
        raise ValueError(f"degenerate geometry for turn ({e_in}, {e_out}): zero-length ray")
    cos_angle = (v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos_angle))))


def turn_speed_factor(angle_deg: float) -> float:
    """Speed retention of a turn: 1 for straight through, 0.5 at 90 deg, 0 for a U-turn."""
    if not (0.0 <= angle_deg <= 180.0):
        raise ValueError(f"turn angle must be in [0, 180] deg, got {angle_deg}")
    return (1.0 - math.cos(math.radians(angle_deg))) / 2.0


# (file key, attribute, kind) of each field of a node and of an edge record, in file order
NODE_FIELDS = (("id", "id", str), ("x", "x", float), ("y", "y", float))
EDGE_FIELDS = (("id", "id", str), ("from", "from_node", str), ("to", "to_node", str), ("length_m", "length_m", float),
               ("lanes", "lanes", int), ("free_flow_speed_mps", "free_flow_speed", float))


def load_network(path) -> RoadNetwork:
    """Load and validate a network document; raises ValueError naming the file on problems."""
    doc = read_json(path)
    fields = Fields(path)
    nodes = [Node(**{attr: fields(n, key, kind, at) for key, attr, kind in NODE_FIELDS})
             for at, n in fields.items(doc, "nodes", dict)]
    edges = []
    for at, e in fields.items(doc, "edges", dict):
        edges.append(RoadEdge(**{attr: fields(e, key, kind, at) for key, attr, kind in EDGE_FIELDS}))
        if "fd" in e:
            raise ValueError(f"{path}: edge {edges[-1].id}: a per-edge fd is refused: every edge's curve is "
                             f"fd_defaults' shape at its free_flow_speed_mps")
    intersections = []
    for at, i in fields.items(doc, "intersections", dict, default=[]):
        names = {key: tuple(fields(i, key, [str], at, default=[]))
                 for key in ("incoming", "outgoing", "group_a", "group_b")}
        turn_weights = {}
        for k, (e_in, e_out, w) in enumerate(fields(i, "turn_weights", [(str, str, float)], at, default=[])):
            if (e_in, e_out) in turn_weights:  # else the last weight would silently win
                raise ValueError(f"{path}: {at}.turn_weights[{k}]: turn ({e_in}, {e_out}) is given more than once")
            turn_weights[e_in, e_out] = w
        intersections.append(Intersection(
            id=fields(i, "id", str, at), node=fields(i, "node", str, at), **names, turn_weights=turn_weights,
            signalized=fields(i, "signalized", bool, at, default=False),
        ))
    shape = fields(doc, "fd_defaults", dict, default={"rho_cr": DEFAULT_RHO_CR, "a": DEFAULT_A})
    if "v_max" in shape:
        raise ValueError(f"{path}: fd_defaults.v_max is not read: each edge's free_flow_speed_mps sets its v_max")
    rho_cr, a = (fields(shape, key, float, "fd_defaults") for key in ("rho_cr", "a"))

    with naming(path):
        net = RoadNetwork(nodes, edges, intersections, rho_cr, a)
    problems = validate(net)
    if problems:
        raise ValueError(f"invalid network {path}:\n  " + "\n  ".join(problems))
    return net


def save_network(net: RoadNetwork, path) -> None:
    """Serialize a network to the same document format load_network reads."""
    doc = {
        "nodes": [{key: getattr(n, attr) for key, attr, _ in NODE_FIELDS} for n in net.nodes.values()],
        "edges": [{key: getattr(e, attr) for key, attr, _ in EDGE_FIELDS} for e in net.edges.values()],
        "intersections": [
            {"id": i.id, "node": i.node, "incoming": list(i.incoming), "outgoing": list(i.outgoing),
             "turn_weights": [[e_in, e_out, w] for (e_in, e_out), w in sorted(i.turn_weights.items())],
             "signalized": i.signalized, "group_a": list(i.group_a), "group_b": list(i.group_b)}
            for i in net.intersections.values()
        ],
    }
    if (net.rho_cr, net.a) != (DEFAULT_RHO_CR, DEFAULT_A):
        doc["fd_defaults"] = {"rho_cr": net.rho_cr, "a": net.a}
    write_json(doc, path)
