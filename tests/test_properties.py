"""Properties of the solver on generated networks.

Each network has one to four junctions at random positions. A junction has
one to four approaches and one to four exits: links to and from the other
junctions, in either direction or both, and stubs at random angles. Lengths,
lanes, free-flow speeds up to the CFL bound, zero and positive turn weights,
the order of each junction's edges, and which junctions are signalized and
how their approaches split into the two groups are drawn at random.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from macrosim.network import MAX_LANES, Intersection, Node, RoadEdge, RoadNetwork, cell_count_for, validate
from macrosim.signals import edge_phases, sample_config
from macrosim.solver import SimParams, initialize, run, step, virtual_boundaries

from test_solver import _random_state, _reference_boundaries, _reference_step

_weight = st.integers(0, 3).flatmap(lambda i: st.floats(0.05, 1.0) if i else st.just(0.0))  # about a quarter zero


@st.composite
def road_networks(draw):
    """1-4 junctions, each fed by 1-4 approaches and draining into 1-4 exits, links between them included."""
    n = draw(st.integers(1, 4))
    spots = draw(st.lists(st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)),
                          min_size=n, max_size=n, unique=True))
    links = [(i, j) for i in range(n) for j in range(n) if i != j and draw(st.booleans())]
    nodes = [Node(f"J{i}", x, y) for i, (x, y) in enumerate(spots)]
    edges = []

    def edge(eid, start, end):
        length = draw(st.floats(20.0, 300.0))
        dx = length / cell_count_for(length)  # a speed up to dx / dt keeps v_max * dt / dx <= 1
        speed = draw(st.floats(0.2, 1.0)) * dx / SimParams.dt_s
        edges.append(RoadEdge(eid, start, end, length, draw(st.integers(1, MAX_LANES)), speed))
        return eid

    for i, j in links:
        edge(f"L{i}{j}", f"J{i}", f"J{j}")
    intersections = []
    for i, (x, y) in enumerate(spots):
        ends = {"a": [f"L{j}{i}" for j, k in links if k == i], "x": [f"L{i}{k}" for j, k in links if j == i]}
        for kind, eids in ends.items():
            for s in range(len(eids), draw(st.integers(max(1, len(eids)), 4))):
                angle = math.radians(draw(st.floats(0.0, 360.0)))
                stub = f"{kind}{i}{s}"
                nodes.append(Node(f"n{stub}", x + 100.0 * math.cos(angle), y + 100.0 * math.sin(angle)))
                eids.append(edge(stub, f"n{stub}", f"J{i}") if kind == "a" else edge(stub, f"J{i}", f"n{stub}"))
        incoming, outgoing = draw(st.permutations(ends["a"])), draw(st.permutations(ends["x"]))
        weights = {}
        for e_in in incoming:
            row = {(e_in, e_out): draw(_weight) for e_out in outgoing}
            if sum(row.values()) > 0:  # a row of zeros is refused; an approach may have no row at all
                weights.update(row)
        groups = {}
        if len(incoming) >= 2 and draw(st.booleans()):
            order, cut = draw(st.permutations(incoming)), draw(st.integers(1, len(incoming) - 1))
            groups = dict(signalized=True, group_a=tuple(order[:cut]), group_b=tuple(order[cut:]))
        intersections.append(Intersection(f"I{i}", f"J{i}", tuple(incoming), tuple(outgoing), weights, **groups))
    net = RoadNetwork(nodes, edges, intersections)
    assume(validate(net) == [])  # junctions within about 1e-162 m of each other leave a turn no angle
    return net


def _configs(net, rng, count):
    return [sample_config(net, rng) if net.signalized_ids() else None for _ in range(count)]


@settings(max_examples=50)
@given(net=road_networks(), data=st.data())
def test_generated_networks_stay_finite_and_in_bounds(net, data):
    params = SimParams(seed=data.draw(st.integers(0, 2**31)))
    speeds = {eid: e.free_flow_speed * data.draw(st.floats(0.2, 1.0)) for eid, e in net.edges.items()}
    state0 = initialize(net, speeds, params)
    configs = _configs(net, np.random.default_rng(data.draw(st.integers(0, 2**31))), 2)
    v_max = np.concatenate([np.full(net.edges[eid].cell_count, net.edges[eid].free_flow_speed)
                            for eid in net.edge_order])

    batched = run(net, state0, configs, params, horizon=60.0, warmup=0.0)
    for config, result in zip(configs, batched):
        rho, v = result.final_state.rho, result.final_state.v
        assert np.all(np.isfinite(rho)) and np.all(np.isfinite(v))
        assert np.all((rho >= SimParams.density_floor) & (rho <= SimParams.jam_density))
        assert np.all((v >= 0.0) & (v <= v_max))
        assert np.isfinite(result.metrics.avg_speed) and np.isfinite(result.metrics.queue_length)

        alone = run(net, state0, config, params, horizon=60.0, warmup=0.0)
        assert alone.metrics == result.metrics
        assert np.array_equal(alone.final_state.rho, rho) and np.array_equal(alone.final_state.v, v)


@settings(max_examples=150)
@given(net=road_networks(), data=st.data())
def test_generated_networks_match_the_reference(net, data):
    # the coupling oracle of test_solver on shapes the fixtures lack: one or three approaches, U-turns, zero
    # weights inside a row, approaches without a row, two-way links, unsignalized junctions among signalized ones
    params = SimParams()
    state = _random_state(net, data.draw(st.integers(0, 2**31)))
    (config,) = _configs(net, np.random.default_rng(data.draw(st.integers(0, 2**31))), 1)
    for t in (0.0, data.draw(st.floats(1.0, 200.0))):
        phases = edge_phases(net, config, t)
        vb = virtual_boundaries(net, state, phases, params)
        q_ref, v_ref, r_ref = _reference_boundaries(net, state, phases, params)
        assert vb.q_in == pytest.approx(q_ref, abs=1e-12)
        assert vb.v_in == pytest.approx(v_ref, abs=1e-12)
        assert vb.rho_out == pytest.approx(r_ref, abs=1e-12)

        out = step(net, state, phases, params)
        rho_ref, v_ref = _reference_step(net, state, vb, phases, params)
        np.testing.assert_allclose(out.rho, rho_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.v, v_ref, rtol=0, atol=1e-12)
