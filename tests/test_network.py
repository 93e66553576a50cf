import dataclasses
import json
import math
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrosim.fundamental import FdParams
from macrosim.signals import load_config, save_config
from macrosim.network import (
    MAX_CELLS,
    Intersection,
    Node,
    RoadEdge,
    RoadNetwork,
    cell_count_for,
    load_network,
    save_network,
    turn_angle,
    turn_speed_factor,
    validate,
)

from test_properties import road_networks


def _t_junction(signalized=False, group_a=("w",), group_b=("s",)):
    """Two incoming edges meeting one outgoing edge at the origin."""
    nodes = [Node("W", -100, 0), Node("S", 0, -100), Node("C", 0, 0), Node("E", 100, 0)]
    edges = [
        RoadEdge("w", "W", "C", 100.0, 1, 13.68),
        RoadEdge("s", "S", "C", 100.0, 1, 13.68),
        RoadEdge("e", "C", "E", 100.0, 1, 13.68),
    ]
    ix = Intersection(
        id="J",
        node="C",
        incoming=("w", "s"),
        outgoing=("e",),
        turn_weights={("w", "e"): 1.0, ("s", "e"): 1.0},
        signalized=signalized,
        group_a=group_a if signalized else (),
        group_b=group_b if signalized else (),
    )
    return RoadNetwork(nodes, edges, [ix])


def test_cell_count_rounds_to_ten_metre_cells():
    assert cell_count_for(120.0) == 12
    assert cell_count_for(95.0) == 10
    assert cell_count_for(14.0) == 2
    # floor of 2 cells even for very short edges
    assert cell_count_for(8.0) == 2


@given(st.floats(min_value=11.0, max_value=5000.0))
def test_cell_length_stays_in_band(length):
    n = cell_count_for(length)
    assert 5.0 <= length / n <= 20.0


def test_cell_layout_is_contiguous_and_sorted():
    net = _t_junction()
    assert net.edge_order == ("e", "s", "w")
    offset = 0
    for eid in net.edge_order:
        sl = net.cell_slice(eid)
        assert sl.start == offset
        assert sl.stop - sl.start == net.edges[eid].cell_count
        offset = sl.stop
    assert net.total_cells == offset == 30


def test_upstream_downstream_maps():
    net = _t_junction()
    assert net.downstream_of == {"w": "J", "s": "J"}
    assert net.upstream_of == {"e": "J"}


def test_fd_for_uses_edge_speed_with_shared_curve_shape():
    net = _t_junction()
    fd = net.fd_for("w")
    assert fd.v_max == 13.68
    assert fd.rho_cr == FdParams().rho_cr
    assert fd.a == FdParams().a


def test_validate_accepts_fixture_networks(ring_net, cross_net, twolights_net, roadcats_net):
    for net in (ring_net, cross_net, twolights_net, roadcats_net):
        assert validate(net) == []


def test_validate_flags_bad_cell_length():
    nodes = [Node("A", 0, 0), Node("B", 100, 0)]
    # 8 m with the 2-cell floor gives 4 m cells, below the 5 m minimum
    net = RoadNetwork(nodes, [RoadEdge("r", "A", "B", 8.0, 1, 10.0)], [])
    probs = validate(net)
    assert any("cell length" in p for p in probs)


def test_validate_flags_signal_group_problems():
    net = _t_junction(signalized=True, group_a=("w", "s"), group_b=("s",))
    probs = validate(net)
    assert any("overlap" in p for p in probs)

    net = _t_junction(signalized=True, group_a=("w",), group_b=())
    probs = validate(net)
    assert any("non-empty" in p for p in probs)

    net = _t_junction(signalized=True, group_a=("w",), group_b=("w",))
    probs = validate(net)
    assert any("cover" in p for p in probs) or any("overlap" in p for p in probs)


def test_validate_flags_dangling_references():
    nodes = [Node("A", 0, 0), Node("B", 100, 0)]
    edges = [RoadEdge("r", "A", "Z", 100.0, 1, 10.0)]
    net = RoadNetwork(nodes, edges, [])
    assert any("unknown to node" in p for p in validate(net))

    ix = Intersection("J", "B", incoming=("missing",), outgoing=())
    net = RoadNetwork(nodes, [RoadEdge("r", "A", "B", 100.0, 1, 10.0)], [ix])
    assert any("unknown incoming edge" in p for p in validate(net))


def test_validate_flags_two_intersections_on_one_node():
    net = _t_junction()
    extra = Intersection("J2", "C", incoming=("w",), outgoing=("e",))
    net2 = RoadNetwork(net.nodes.values(), net.edges.values(), [net.intersections["J"], extra])
    assert any("already used" in p for p in validate(net2))


@pytest.mark.parametrize("lanes, problems", [
    (1.5, ["edge r: lanes must be an integer, got 1.5"]),
    (True, ["edge r: lanes must be an integer, got True"]),
    (np.int64(2), []),
])
def test_validate_takes_integer_lanes_only(lanes, problems):
    """A network built in Python meets the integer rule that load_network's typed reader applies to a file."""
    nodes = [Node("A", 0, 0), Node("B", 100, 0)]
    assert validate(RoadNetwork(nodes, [RoadEdge("r", "A", "B", 100.0, lanes, 10.0)], [])) == problems


@pytest.mark.parametrize("part, key, value, problems", [
    ("node", "x", "-100", ["node W: non-finite coordinates"]),
    ("node", "y", True, ["node W: non-finite coordinates"]),
    ("edge", "free_flow_speed", "13.68", ["edge w: free_flow_speed must be finite and > 0"]),
    ("edge", "free_flow_speed", True, ["edge w: free_flow_speed must be finite and > 0"]),
    ("edge", "length_m", "100", "edge w: length must be finite and > 0, got '100'"),
    ("weight", ("w", "e"), "1", ["intersection J: turn weight (w, e) must be finite and >= 0"]),
    ("weight", ("w", "e"), True, ["intersection J: turn weight (w, e) must be finite and >= 0"]),
    ("shape", "rho_cr", True, ["fd_defaults.rho_cr must be finite and > 0, got True"]),
    ("shape", "a", np.float32(1.5), []),
])
def test_a_network_built_in_python_takes_real_numbers_only(part, key, value, problems):
    """A string or a bool where a network holds a number is one more problem, or a refused layout; never a TypeError."""
    net = _t_junction()
    nodes, edges, shape = dict(net.nodes), dict(net.edges), {"rho_cr": net.rho_cr, "a": net.a}
    ix = net.intersections["J"]
    if part == "node":
        nodes["W"] = dataclasses.replace(nodes["W"], **{key: value})
    elif part == "edge":
        edges["w"] = dataclasses.replace(edges["w"], **{key: value})
    elif part == "weight":
        ix = dataclasses.replace(ix, turn_weights={**ix.turn_weights, key: value})
    else:
        shape[key] = value
    if isinstance(problems, str):
        with pytest.raises(ValueError, match=f"^{re.escape(problems)}$"):
            RoadNetwork(nodes.values(), edges.values(), [ix], **shape)
    else:
        assert validate(RoadNetwork(nodes.values(), edges.values(), [ix], **shape)) == problems


def test_validate_flags_an_edge_from_a_node_to_itself():
    nodes = [Node("A", 0, 0), Node("B", 100, 0)]
    net = RoadNetwork(nodes, [RoadEdge("r", "A", "A", 100.0, 1, 10.0)], [])
    assert validate(net) == ["edge r: from and to node coincide"]


@pytest.mark.parametrize("weight", [-0.5, float("nan")])
def test_validate_flags_a_turn_weight_that_is_negative_or_not_finite(weight):
    net = _t_junction()
    ix = net.intersections["J"]
    bad = Intersection(ix.id, ix.node, ix.incoming, ix.outgoing, {("w", "e"): weight, ("s", "e"): 1.0})
    net = RoadNetwork(net.nodes.values(), net.edges.values(), [bad])
    assert validate(net) == ["intersection J: turn weight (w, e) must be finite and >= 0"]


def test_validate_flags_zero_weight_row():
    nodes = [Node("W", -100, 0), Node("C", 0, 0), Node("E", 100, 0)]
    edges = [RoadEdge("w", "W", "C", 100.0, 1, 10.0), RoadEdge("e", "C", "E", 100.0, 1, 10.0)]
    ix = Intersection("J", "C", incoming=("w",), outgoing=("e",), turn_weights={("w", "e"): 0.0})
    net = RoadNetwork(nodes, edges, [ix])
    assert any("sum to 0" in p for p in validate(net))


def test_validate_flags_zero_length_turn_ray():
    # W sits on the junction's coordinates, so the turn from w has no angle; a zero-weight turn is not compiled
    net = _t_junction()
    moved = RoadNetwork([Node("W", 0, 0), *list(net.nodes.values())[1:]], net.edges.values(), net.intersections.values())
    assert validate(moved) == ["intersection J: turn (w, e) has a zero-length ray: node W sits on junction node C"]

    nodes = [Node("W", -100, 0), Node("C", 0, 0), Node("E", 100, 0), Node("N", 0, 0)]
    edges = [RoadEdge("w", "W", "C", 100.0, 1, 10.0), RoadEdge("e", "C", "E", 100.0, 1, 10.0),
             RoadEdge("n", "C", "N", 100.0, 1, 10.0)]
    unused = Intersection("J", "C", ("w",), ("e", "n"), {("w", "e"): 1.0, ("w", "n"): 0.0})
    assert validate(RoadNetwork(nodes, edges, [unused])) == []


@pytest.mark.parametrize("name, node, center, wanted", [
    ("cross", "N", "C", "intersection X: turn (s_in, n_out) has a zero-length ray: node N sits on junction node C"),
    ("twolights", "N1", "J1", "intersection J1: turn (j2_j1, j1_n1) has a zero-length ray: node N1 sits on junction node J1"),
])
def test_load_network_rejects_a_node_on_its_junction(fixtures_dir, tmp_path, name, node, center, wanted):
    doc = json.loads((fixtures_dir / f"{name}.json").read_text())
    xy = next((n["x"], n["y"]) for n in doc["nodes"] if n["id"] == center)
    for n in doc["nodes"]:
        if n["id"] == node:
            n["x"], n["y"] = xy
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(wanted)):
        load_network(path)


@pytest.mark.parametrize("name, kind, wanted", [
    ("ring", "outgoing", "intersection rx0: outgoing edge re0 is listed more than once"),
    ("cross", "incoming", "intersection X: incoming edge n_in is listed more than once"),
    ("cross", "outgoing", "intersection X: outgoing edge n_out is listed more than once"),
])
def test_load_network_rejects_an_edge_listed_twice_at_a_junction(fixtures_dir, tmp_path, name, kind, wanted):
    # each listing feeds the movement once more, so a repeated edge created vehicles without a word
    doc = json.loads((fixtures_dir / f"{name}.json").read_text())
    edges = doc["intersections"][0][kind]
    edges.append(edges[0])
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid network {path}:')}\n  {re.escape(wanted)}$"):
        load_network(path)


def test_turn_angle_straight_and_perpendicular():
    net = _t_junction()
    assert turn_angle(net, "w", "e") == pytest.approx(180.0)
    assert turn_angle(net, "s", "e") == pytest.approx(90.0)


def test_turn_angle_requires_shared_intersection():
    net = _t_junction()
    with pytest.raises(ValueError, match="^edges e and w do not meet at a common intersection$"):
        turn_angle(net, "e", "w")


def test_turn_angle_refuses_an_unknown_edge():
    net = _t_junction()
    with pytest.raises(ValueError, match=r"^unknown edge in turn \(w, x\)$"):
        turn_angle(net, "w", "x")
    with pytest.raises(ValueError, match=r"^unknown edge in turn \(x, e\)$"):
        turn_angle(net, "x", "e")


def test_turn_angle_refuses_a_zero_length_ray():
    # validate refuses this network as a file, so it is built here: W sits on the junction's coordinates
    net = _t_junction()
    moved = RoadNetwork([Node("W", 0, 0), *list(net.nodes.values())[1:]], net.edges.values(), net.intersections.values())
    with pytest.raises(ValueError, match=r"^degenerate geometry for turn \(w, e\): zero-length ray$"):
        turn_angle(moved, "w", "e")
    assert turn_angle(moved, "s", "e") == pytest.approx(90.0)  # the other movement keeps both its rays


def test_a_ray_too_short_to_square_is_a_zero_length_ray():
    # drawn by tests/test_properties.py: J1 lies 4.2e-306 m from J2, so each ray of the U-turn at J2 has a length
    # but the product of the two underflows to 0, and the turn has no angle
    nodes = [Node("J1", 0.0, 4.240127937265437e-306), Node("J2", 0.0, 0.0)]
    edges = [RoadEdge("L12", "J1", "J2", 20.0, 1, 20.0), RoadEdge("L21", "J2", "J1", 20.0, 1, 20.0)]
    net = RoadNetwork(nodes, edges, [Intersection("I1", "J1", ("L21",), ("L12",)),
                                     Intersection("I2", "J2", ("L12",), ("L21",), {("L12", "L21"): 1.0})])
    wanted = "intersection I2: turn (L12, L21) has a zero-length ray: node J1 sits on junction node J2"
    assert validate(net) == [wanted] * 2  # once per ray: both end at J1
    with pytest.raises(ValueError, match=r"^degenerate geometry for turn \(L12, L21\): zero-length ray$"):
        turn_angle(net, "L12", "L21")


def test_turn_speed_factor_endpoints():
    assert turn_speed_factor(180.0) == pytest.approx(1.0)
    assert turn_speed_factor(90.0) == pytest.approx(0.5)
    assert turn_speed_factor(0.0) == 0.0
    with pytest.raises(ValueError):
        turn_speed_factor(210.0)


@given(st.floats(min_value=0.0, max_value=180.0))
def test_turn_speed_factor_monotone(angle):
    # retention grows with how straight the movement is
    f = turn_speed_factor(angle)
    assert 0.0 <= f <= 1.0
    if angle < 179.0:
        assert turn_speed_factor(angle + 1.0) >= f


def test_ring_interior_angle_is_obtuse(ring_net):
    # regular octagon: every through-movement bends by 45 deg
    ids = sorted(ring_net.intersections)
    ix = ring_net.intersections[ids[0]]
    angle = turn_angle(ring_net, ix.incoming[0], ix.outgoing[0])
    assert angle == pytest.approx(135.0, abs=1e-3)
    assert turn_speed_factor(angle) == pytest.approx((1 - math.cos(math.radians(135))) / 2, abs=1e-5)


def test_network_json_round_trip(tmp_path, twolights_net):
    path = tmp_path / "net.json"
    save_network(twolights_net, path)
    again = load_network(path)
    assert again == twolights_net


@settings(max_examples=50)
@given(net=road_networks())
def test_generated_networks_round_trip(net):
    """1-4 junctions, zero turn weights, links both ways, signalized and unsignalized junctions mixed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "net.json"
        save_network(net, path)
        assert load_network(path) == net


def test_a_network_equals_no_other_kind_of_value(twolights_net):
    # __eq__ defers to the other operand, so the comparison falls back to identity
    assert (twolights_net == 5) is False
    assert (twolights_net != "x") is True


def test_fd_defaults_carry_no_v_max(tmp_path):
    doc = {
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 100, "y": 0}],
        "edges": [{"id": "r", "from": "A", "to": "B", "length_m": 100, "lanes": 1, "free_flow_speed_mps": 10}],
        "fd_defaults": {"rho_cr": 0.05, "a": 2.0},
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    net = load_network(path)
    assert net.fd_for("r") == FdParams(v_max=10.0, rho_cr=0.05, a=2.0)
    save_network(net, tmp_path / "again.json")
    assert json.loads((tmp_path / "again.json").read_text())["fd_defaults"] == {"rho_cr": 0.05, "a": 2.0}
    assert load_network(tmp_path / "again.json") == net

    doc["fd_defaults"]["v_max"] = 12.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: fd_defaults.v_max .*free_flow_speed_mps"):
        load_network(path)


def test_network_equality_compares_the_curve_shape():
    base = _t_junction()
    parts = (base.nodes.values(), base.edges.values(), base.intersections.values())
    assert RoadNetwork(*parts, rho_cr=FdParams().rho_cr, a=FdParams().a) == base
    assert RoadNetwork(*parts, rho_cr=0.06) != base
    assert RoadNetwork(*parts, a=2.0) != base


def _one_edge_doc(**extra):
    return {
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 100, "y": 0}],
        "edges": [{"id": "r", "from": "A", "to": "B", "length_m": 100, "lanes": 1, "free_flow_speed_mps": 10}],
        **extra,
    }


def test_load_network_refuses_a_per_edge_fd(tmp_path):
    doc = _one_edge_doc()
    doc["edges"][0]["fd"] = {"v_max": 8.0, "rho_cr": 0.03, "a": 2.0}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: edge r: a per-edge fd is refused"):
        load_network(path)


@pytest.mark.parametrize("key", ["rho_cr", "a"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_load_network_rejects_a_bad_curve_shape(tmp_path, key, value):
    shape = {"rho_cr": 0.05, "a": 1.24, key: value}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_one_edge_doc(fd_defaults=shape)))
    with pytest.raises(ValueError, match=rf"^invalid network {re.escape(str(path))}:\n  fd_defaults.{key} must be"):
        load_network(path)


def test_validate_flags_a_bad_curve_shape():
    base = _t_junction()
    parts = (base.nodes.values(), base.edges.values(), base.intersections.values())
    assert validate(RoadNetwork(*parts, rho_cr=-0.05, a=float("nan"))) == [
        "fd_defaults.rho_cr must be finite and > 0, got -0.05",
        "fd_defaults.a must be finite and > 0, got nan",
    ]


def test_load_network_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        """
        {"nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 100, "y": 0}],
         "edges": [
           {"id": "r", "from": "A", "to": "B", "length_m": 100, "lanes": 1, "free_flow_speed_mps": 10},
           {"id": "r", "from": "B", "to": "A", "length_m": 100, "lanes": 1, "free_flow_speed_mps": 10}
         ]}
        """
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate edge id 'r'$"):
        load_network(path)


@pytest.mark.parametrize("kind", ["node", "edge", "intersection"])
def test_network_rejects_a_repeated_id(kind):
    nodes = [Node("A", 0.0, 0.0), Node("B", 100.0, 0.0)]
    edges = [RoadEdge("r", "A", "B", 100.0, 1, 10.0)]
    intersections = [Intersection("X", "B", ("r",), ())]
    parts = {"node": nodes, "edge": edges, "intersection": intersections}
    parts[kind] = parts[kind] + [parts[kind][0]]
    with pytest.raises(ValueError, match=f"^duplicate {kind} id '{parts[kind][0].id}'$"):
        RoadNetwork(*parts.values())


@pytest.mark.parametrize("length", [float("nan"), float("inf"), 0.0, -5.0])
def test_network_rejects_a_length_the_cell_layout_cannot_use(tmp_path, length):
    wanted = f"edge r: length must be finite and > 0, got {length!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(wanted)}$"):
        RoadNetwork([Node("A", 0.0, 0.0), Node("B", 100.0, 0.0)], [RoadEdge("r", "A", "B", length, 1, 10.0)], [])
    doc = _one_edge_doc()
    doc["edges"][0]["length_m"] = length
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes and reads them
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {wanted}')}$"):
        load_network(path)


def test_network_refuses_a_cell_layout_above_the_cap(tmp_path):
    # only the layout's slices are built, never an array, so these sizes cost nothing to refuse
    nodes = [Node("A", 0.0, 0.0), Node("B", 100.0, 0.0)]
    assert RoadNetwork(nodes, [RoadEdge("r", "A", "B", 10.0 * MAX_CELLS, 1, 10.0)], []).total_cells == MAX_CELLS
    wanted = f"edge r: the cell layout reaches {MAX_CELLS + 1} cells, more than {MAX_CELLS}"
    with pytest.raises(ValueError, match=f"^{re.escape(wanted)}$"):
        RoadNetwork(nodes, [RoadEdge("r", "A", "B", 10.0 * (MAX_CELLS + 1), 1, 10.0)], [])
    path = tmp_path / "net.json"
    for length in (10.0 * (MAX_CELLS + 1), 1e11, 1e308):
        doc = _one_edge_doc()
        doc["edges"][0]["length_m"] = length
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: edge r: the cell layout reaches "):
            load_network(path)


_ONE_JUNCTION = {
    "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 100, "y": 0}, {"id": "C", "x": 200, "y": 0}],
    "edges": [{"id": "r", "from": "A", "to": "B", "length_m": 100, "lanes": 1, "free_flow_speed_mps": 10},
              {"id": "s", "from": "B", "to": "C", "length_m": 100, "lanes": 1, "free_flow_speed_mps": 10}],
    "intersections": [{"id": "X", "node": "B", "incoming": ["r"], "outgoing": ["s"],
                       "turn_weights": [["r", "s", 1.0]]}],
}


@pytest.mark.parametrize("where, key, value, wanted", [
    ("edges", "lanes", 1.5, "edges[0].lanes: expected int, got 1.5"),
    ("edges", "lanes", True, "edges[0].lanes: expected int, got True"),
    ("edges", "lanes", float("inf"), "edges[0].lanes: expected int, got inf"),
    ("edges", "free_flow_speed_mps", True, "edges[0].free_flow_speed_mps: expected float, got True"),
    ("edges", "id", 7, "edges[0].id: expected str, got 7"),
    ("nodes", "x", "100", "nodes[0].x: expected float, got '100'"),
    ("nodes", "y", 10**400, "nodes[0].y: expected float, got 1000"),
    ("intersections", "signalized", "yes", "intersections[0].signalized: expected bool, got 'yes'"),
    ("intersections", "incoming", "r", "intersections[0].incoming: expected list of str, got 'r'"),
    ("intersections", "turn_weights", [["r", "s"]], "intersections[0].turn_weights[0]: expected [str, str, float]"),
    ("intersections", "turn_weights", [["r", "s", "1"]],
     "intersections[0].turn_weights[0][2]: expected float, got '1'"),
    ("intersections", "node", None, "intersections[0].node: expected str, got None"),
    ("intersections", "turn_weights", [["r", "s", 1.0], ["r", "s", 2.0]],
     "intersections[0].turn_weights[1]: turn (r, s) is given more than once"),
    ("intersections", "id", "deleted", "missing key 'intersections[0].id'"),
])
def test_load_network_names_the_key_path_of_a_bad_field(tmp_path, where, key, value, wanted):
    doc = json.loads(json.dumps(_ONE_JUNCTION))
    if value == "deleted":
        del doc[where][0][key]
    else:
        doc[where][0][key] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {wanted}')}"):
        load_network(path)
    path.write_text(json.dumps({**_ONE_JUNCTION, where: [None]}))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {where}[0]: expected dict, got None')}$"):
        load_network(path)
    path.write_text(json.dumps(_ONE_JUNCTION))
    assert load_network(path).edges["r"].lanes == 1


def test_fixtures_round_trip_byte_for_byte(fixtures_dir, tmp_path):
    # every committed network and lights file is written by save_network or save_config (scripts/build_fixtures.py),
    # so reading it back and writing it again must reproduce it exactly, key order included
    out = tmp_path / "again.json"
    for path in sorted(fixtures_dir.glob("*.json")):
        if path.stem.endswith("_lights"):
            save_config(load_config(path), out)
        else:
            save_network(load_network(path), out)
        assert out.read_bytes() == path.read_bytes(), path.name


def test_load_network_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="cannot parse"):
        load_network(path)


def test_load_network_rejects_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text('{"nodes": [], "edges": [{"id": "r"}]}')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing key 'edges\\[0\\].from'$"):
        load_network(path)


def test_load_network_runs_validation(tmp_path):
    path = tmp_path / "badcell.json"
    path.write_text(
        """
        {"nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 8, "y": 0}],
         "edges": [{"id": "r", "from": "A", "to": "B", "length_m": 8, "lanes": 1,
                    "free_flow_speed_mps": 10}]}
        """
    )
    with pytest.raises(ValueError, match="invalid network"):
        load_network(path)
