"""Property tests for ring/torus routing and the congestion curve."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.params import congestion_fraction
from repro.hardware.sci.topology import RingTopology, TorusTopology


@given(
    n=st.integers(min_value=2, max_value=32),
    src=st.integers(min_value=0, max_value=31),
    dst=st.integers(min_value=0, max_value=31),
)
def test_property_ring_route_invariants(n, src, dst):
    src %= n
    dst %= n
    ring = RingTopology(n)
    route = ring.route(src, dst)
    # Data route length equals the forward distance.
    assert route.hops == ring.distance(src, dst)
    # Data + echo segments tile the whole ring exactly once (src != dst).
    if src != dst:
        combined = sorted(route.data_segments + route.echo_segments)
        assert combined == list(range(n))
        # Data route starts at src's output segment.
        assert route.data_segments[0] == src
        # Echo route starts at dst's output segment.
        assert route.echo_segments[0] == dst
    else:
        assert route.data_segments == () and route.echo_segments == ()


@st.composite
def torus_and_nodes(draw):
    dims = tuple(
        draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3))
    )
    torus = TorusTopology(dims)
    a = draw(st.integers(min_value=0, max_value=torus.n_nodes - 1))
    b = draw(st.integers(min_value=0, max_value=torus.n_nodes - 1))
    return torus, a, b


@settings(max_examples=200, deadline=None)
@given(data=torus_and_nodes())
def test_property_torus_route_invariants(data):
    torus, a, b = data
    route = torus.route(a, b)
    # Route length equals the Manhattan-with-wrap distance.
    assert route.hops == torus.distance(a, b)
    # Every segment used exists in the topology.
    valid = set(torus.segments())
    for seg in route.data_segments + route.echo_segments:
        assert seg in valid
    # Dimension-order: segment dimensions never decrease along the route.
    dims_crossed = [seg[0] for seg in route.data_segments]
    assert dims_crossed == sorted(dims_crossed)
    # Self-route is empty.
    assert torus.route(a, a).hops == 0


@settings(max_examples=200, deadline=None)
@given(load=st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
def test_property_congestion_fraction_bounds(load):
    frac = congestion_fraction(load)
    assert 0.0 < frac <= 1.0
    # Delivered traffic (load x fraction) never exceeds the nominal
    # capacity equivalent.
    assert load * frac <= max(1.0, load) + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    lo=st.floats(min_value=0.0, max_value=4.9, allow_nan=False),
    delta=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
)
def test_property_congestion_fraction_monotone_nonincreasing(lo, delta):
    assert congestion_fraction(lo + delta) <= congestion_fraction(lo) + 1e-9


def test_torus_512_node_configuration():
    """The paper's outlook: 8-node ringlets in a 3-D torus -> 512 nodes."""
    torus = TorusTopology((8, 8, 8))
    assert torus.n_nodes == 512
    # Each node participates in 3 rings; total segments = 3 * 512.
    assert len(torus.segments()) == 3 * 512
    # Worst-case distance: 7 hops in each dimension.
    a = torus.node_at((0, 0, 0))
    b = torus.node_at((1, 1, 1))
    # Forward arcs wrap: (1,1,1) is 1+1+1 away, (0,0,0)<-... is 7+7+7.
    assert torus.distance(a, b) == 3
    assert torus.distance(b, a) == 21
