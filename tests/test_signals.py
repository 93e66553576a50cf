import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macrosim.signals import (
    RED_GREEN_MAX,
    RED_GREEN_MIN,
    IntersectionSignal,
    decode,
    decode_values,
    edge_phases,
    encode,
    encode_values,
    group_a_red,
    load_config,
    red_schedule,
    sample_config,
    save_config,
    signal_groups,
)

signals = st.builds(
    lambda red, green, frac: IntersectionSignal(
        red=red, green=green, offset=int(frac * (red + green - 1))
    ),
    st.integers(RED_GREEN_MIN, RED_GREEN_MAX),
    st.integers(RED_GREEN_MIN, RED_GREEN_MAX),
    st.floats(min_value=0.0, max_value=1.0),
)


def test_phase_schedule_walkthrough():
    sig = IntersectionSignal(red=30, green=20, offset=10)
    # initial red until the offset elapses, then green/red alternation
    times = [0.0, 9.9, 10.0, 29.9, 30.0, 59.9, 60.0]
    expected = [True, True, False, False, True, True, False]
    assert [bool(group_a_red(sig, t)) for t in times] == expected
    assert group_a_red(sig, np.array(times)).tolist() == expected


def test_zero_offset_starts_green():
    sig = IntersectionSignal(red=20, green=20, offset=0)
    assert not group_a_red(sig, 0.0)


@given(signals, st.floats(min_value=0, max_value=500))
def test_groups_are_always_complementary(twolights_net, sig, t):
    red = edge_phases(twolights_net, {"J1": sig, "J2": sig}, t)
    a_red = group_a_red(sig, t)
    for iid in ("J1", "J2"):
        ix = twolights_net.intersections[iid]
        assert all((e in red) == a_red for e in ix.group_a)
        assert all((e not in red) == a_red for e in ix.group_b)


@given(signals, st.floats(min_value=0, max_value=300))
def test_schedule_is_cycle_periodic(sig, t):
    if t < sig.offset:
        return
    assert group_a_red(sig, t) == group_a_red(sig, t + sig.cycle)


def test_phase_rejects_negative_time():
    with pytest.raises(ValueError):
        group_a_red(IntersectionSignal(20, 20, 0), -1.0)
    with pytest.raises(ValueError):
        group_a_red(IntersectionSignal(20, 20, 0), np.array([0.0, -1.0]))
    # a clock that is not a time has no phase: nan used to read as group A green, and so did inf
    for t in (np.nan, np.inf, np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match=r"^time must be finite and >= 0, got (nan|inf)$"):
            group_a_red(IntersectionSignal(20, 20, 0), t)


def test_signal_validation():
    with pytest.raises(ValueError):
        IntersectionSignal(red=19, green=20, offset=0)
    with pytest.raises(ValueError):
        IntersectionSignal(red=20, green=55, offset=0)
    with pytest.raises(ValueError):
        IntersectionSignal(red=20, green=20, offset=40)  # max is cycle - 1
    with pytest.raises(ValueError):
        IntersectionSignal(red=20.0, green=20, offset=0)
    assert IntersectionSignal(red=20, green=20, offset=39).cycle == 40


def test_signal_groups_names_mismatches(twolights_net):
    sig = IntersectionSignal(30, 30, 0)
    with pytest.raises(ValueError, match="missing"):
        signal_groups(twolights_net, {"J1": sig})
    with pytest.raises(ValueError, match="unexpected"):
        signal_groups(twolights_net, {"J1": sig, "J2": sig, "J3": sig})
    with pytest.raises(ValueError, match=r"missing \['J2'\], unexpected \['J3'\]"):
        encode({"J1": sig, "J3": sig}, twolights_net)
    assert [g[0] for g in signal_groups(twolights_net, {"J1": sig, "J2": sig})] == [sig, sig]


def test_edge_phases_covers_signal_groups(twolights_net):
    config = {
        "J1": IntersectionSignal(30, 20, 10),
        "J2": IntersectionSignal(20, 20, 0),
    }
    red = edge_phases(twolights_net, config, 0.0)
    ix1, ix2 = twolights_net.intersections["J1"], twolights_net.intersections["J2"]
    # group A of J1 sits in its initial red at t=0, so its group B is green; J2's zero offset starts group A green
    assert red == frozenset(ix1.group_a) | frozenset(ix2.group_b)


def test_edge_phases_unsignalized(ring_net):
    assert edge_phases(ring_net, None, 5.0) == frozenset()
    assert edge_phases(ring_net, {}, 5.0) == frozenset()
    with pytest.raises(ValueError):
        edge_phases(ring_net, {"X": IntersectionSignal(20, 20, 0)}, 0.0)


def test_edge_phases_requires_config_when_signalized(twolights_net):
    with pytest.raises(ValueError):
        edge_phases(twolights_net, None, 0.0)


def test_red_schedule_states_the_signal_rule(twolights_net, cross_net, ring_net):
    config = {"J1": IntersectionSignal(30, 20, 10), "J2": IntersectionSignal(25, 40, 0)}
    times = np.arange(0.0, 200.0, 0.5)
    red = red_schedule(twolights_net, config, times)
    assert red.shape == (len(times), len(twolights_net.edge_order)) and red.dtype == bool
    column = {eid: red[:, i] for i, eid in enumerate(twolights_net.edge_order)}  # columns follow net.edge_order
    signalled = set()
    for iid, sig in config.items():
        ix = twolights_net.intersections[iid]
        for e in ix.group_a:
            assert np.array_equal(column[e], group_a_red(sig, times))
        for e in ix.group_b:  # group B is group A's complement
            assert np.array_equal(column[e], ~group_a_red(sig, times))
        signalled |= set(ix.group_a) | set(ix.group_b)
    assert signalled and not any(column[e].any() for e in set(twolights_net.edge_order) - signalled)
    for t, row in zip(times, red):  # each row is edge_phases at that clock
        assert edge_phases(twolights_net, config, t) == {e for e, r in zip(twolights_net.edge_order, row) if r}
    assert not red_schedule(ring_net, None, times).any()
    assert red_schedule(cross_net, {"X": IntersectionSignal(30, 30, 0)}, []).shape == (0, len(cross_net.edge_order))


def test_red_schedule_refuses_what_signal_groups_refuses(twolights_net, ring_net):
    sig = IntersectionSignal(30, 30, 0)
    for net, config in ((twolights_net, {"J1": sig}), (twolights_net, {"J1": sig, "J2": sig, "J3": sig}),
                        (twolights_net, None), (ring_net, {"X": sig})):
        with pytest.raises(ValueError) as refused:
            signal_groups(net, config)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            red_schedule(net, config, [0.0, 1.0])
    with pytest.raises(ValueError, match=r"^time must be finite and >= 0, got -1.0$"):
        red_schedule(twolights_net, {"J1": sig, "J2": sig}, [0.0, -1.0])


def test_sample_config_is_reproducible_and_in_range(twolights_net):
    c1 = sample_config(twolights_net, np.random.default_rng(42))
    c2 = sample_config(twolights_net, np.random.default_rng(42))
    assert c1 == c2
    assert set(c1) == {"J1", "J2"}
    for sig in c1.values():
        assert RED_GREEN_MIN <= sig.red <= RED_GREEN_MAX
        assert RED_GREEN_MIN <= sig.green <= RED_GREEN_MAX
        assert 0 <= sig.offset <= sig.cycle - 1


def test_sample_config_rejects_unsignalized(ring_net):
    with pytest.raises(ValueError, match="^network has no signalized intersections; nothing to vary$"):
        sample_config(ring_net, np.random.default_rng(0))


def test_encode_unit_interval_and_known_values():
    config = {"X": IntersectionSignal(red=20, green=54, offset=0)}
    vec = encode_values(config, ["X"])
    assert vec.tolist() == [0.0, 1.0, 0.0]
    config = {"X": IntersectionSignal(red=54, green=20, offset=73)}
    vec = encode_values(config, ["X"])
    assert vec.tolist() == [1.0, 0.0, 1.0]


@given(signals)
def test_encode_decode_round_trip(sig):
    config = {"X": sig}
    back = decode_values(encode_values(config, ["X"]), ["X"])
    assert back["X"] == sig


@pytest.mark.parametrize("vector, index, shown", [
    ([-0.2, 1.4, 0.5], 0, "-0.2"),
    ([0.0, 1.4, 0.5], 1, "1.4"),
    ([0.0, 1.0, float("nan")], 2, "nan"),
])
def test_decode_refuses_coordinates_outside_the_box(vector, index, shown):
    """No timing is made up for a point outside [0, 1]; the first such coordinate is named."""
    with pytest.raises(ValueError, match=rf"^encoded coordinate {index} must be in \[0, 1\], got {re.escape(shown)}$"):
        decode_values(np.array(vector), ["X"])


def test_decode_wrong_length_rejected():
    with pytest.raises(ValueError):
        decode_values(np.zeros(4), ["X"])


def test_network_level_encode_orders_by_sorted_id(twolights_net):
    config = {
        "J1": IntersectionSignal(20, 20, 0),
        "J2": IntersectionSignal(54, 54, 107),
    }
    vec = encode(config, twolights_net)
    assert vec.shape == (6,)
    assert vec[:3].tolist() == [0.0, 0.0, 0.0]
    assert vec[3:].tolist() == [1.0, 1.0, 1.0]
    assert decode(vec, twolights_net) == config


def test_config_json_round_trip(tmp_path):
    config = {
        "J1": IntersectionSignal(30, 25, 12),
        "J2": IntersectionSignal(44, 20, 0),
    }
    path = tmp_path / "lights.json"
    save_config(config, path)
    assert load_config(path) == config
