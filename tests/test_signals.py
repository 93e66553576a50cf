import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macrosim.signals import (
    RED_GREEN_MAX,
    RED_GREEN_MIN,
    IntersectionSignal,
    Phase,
    decode,
    decode_values,
    edge_phases,
    encode,
    encode_values,
    group_a_red,
    load_config,
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
    phases = edge_phases(twolights_net, {"J1": sig, "J2": sig}, t)
    a_red = group_a_red(sig, t)
    for iid in ("J1", "J2"):
        ix = twolights_net.intersections[iid]
        assert all((phases[e] is Phase.RED) == a_red for e in ix.group_a)
        assert all((phases[e] is Phase.GREEN) == a_red for e in ix.group_b)


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
    phases = edge_phases(twolights_net, config, 0.0)
    controlled = set()
    for iid in ("J1", "J2"):
        ix = twolights_net.intersections[iid]
        controlled |= set(ix.group_a) | set(ix.group_b)
    assert set(phases) == controlled
    ix1 = twolights_net.intersections["J1"]
    # group A of J1 sits in its initial red at t=0, group B is green
    assert all(phases[e] is Phase.RED for e in ix1.group_a)
    assert all(phases[e] is Phase.GREEN for e in ix1.group_b)


def test_edge_phases_unsignalized(ring_net):
    assert edge_phases(ring_net, None, 5.0) == {}
    assert edge_phases(ring_net, {}, 5.0) == {}
    with pytest.raises(ValueError):
        edge_phases(ring_net, {"X": IntersectionSignal(20, 20, 0)}, 0.0)


def test_edge_phases_requires_config_when_signalized(twolights_net):
    with pytest.raises(ValueError):
        edge_phases(twolights_net, None, 0.0)


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
    with pytest.raises(ValueError):
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


def test_decode_clamps_out_of_range_with_warning():
    with pytest.warns(UserWarning):
        config = decode_values(np.array([-0.2, 1.4, 0.5]), ["X"])
    sig = config["X"]
    assert sig.red == RED_GREEN_MIN
    assert sig.green == RED_GREEN_MAX
    assert 0 <= sig.offset <= sig.cycle - 1


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
