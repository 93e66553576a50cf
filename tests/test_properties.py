"""Properties of the solver on generated networks.

Each network is a chain of one to three signalized junctions along a main
road, each crossed by a side street; link lengths, lanes, free-flow speeds,
turn weights, initial speeds and signal timings are drawn at random.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from macrosim.network import Intersection, Node, RoadEdge, RoadNetwork, validate
from macrosim.signals import sample_config
from macrosim.solver import SimParams, initialize, run

_link = st.tuples(st.floats(60.0, 300.0), st.integers(1, 3), st.floats(8.0, 16.0))  # length, lanes, speed
_weight = st.floats(0.05, 1.0)


@st.composite
def chain_networks(draw):
    """A main road through 1-3 signalized junctions, a side street crossing each one."""
    k = draw(st.integers(1, 3))
    main = draw(st.lists(_link, min_size=k + 1, max_size=k + 1))
    x = np.cumsum([0.0] + [length for length, _, _ in main])
    nodes = [Node(f"m{i}", float(x[i]), 0.0) for i in range(k + 2)]
    edges = [RoadEdge(f"main{i}", f"m{i}", f"m{i + 1}", *link) for i, link in enumerate(main)]
    intersections = []
    for j in range(1, k + 1):
        (len_in, *rest_in), (len_out, *rest_out) = draw(_link), draw(_link)
        nodes += [Node(f"n{j}", float(x[j]), len_in), Node(f"s{j}", float(x[j]), -len_out)]
        edges += [RoadEdge(f"in{j}", f"n{j}", f"m{j}", len_in, *rest_in),
                  RoadEdge(f"out{j}", f"m{j}", f"s{j}", len_out, *rest_out)]
        ins, outs = (f"main{j - 1}", f"in{j}"), (f"main{j}", f"out{j}")
        intersections.append(Intersection(
            f"J{j}", f"m{j}", ins, outs, {(a, b): draw(_weight) for a in ins for b in outs},
            signalized=True, group_a=ins[:1], group_b=ins[1:],
        ))
    return RoadNetwork(nodes, edges, intersections)


@given(net=chain_networks(), data=st.data())
def test_generated_networks_stay_finite_and_in_bounds(net, data):
    assert validate(net) == []
    params = SimParams(seed=data.draw(st.integers(0, 2**31)))
    speeds = {eid: e.free_flow_speed * data.draw(st.floats(0.2, 1.0)) for eid, e in net.edges.items()}
    state0 = initialize(net, speeds, params)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    configs = [sample_config(net, rng) for _ in range(2)]
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
