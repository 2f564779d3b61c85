"""Fabric topologies: routing, link identity, and capacity as one protocol.

The paper's ringlet-saturation study shows why the single-ring ceiling is
the binding constraint on scaling — and why large SCI systems were built
as *switched multi-ringlet fabrics* (the outlook's "512 nodes with 8-node
ringlets in a 3D-torus").  This module makes the topology a first-class
object with one protocol, :class:`Topology`, so the fabric, the transfer
policy, the collectives and the observability layer can all reason about
structure instead of hardcoding "one flat ring":

* :meth:`~Topology.route` — the :class:`Route` (data + echo links) a
  transfer occupies;
* :meth:`~Topology.links_on` / :meth:`~Topology.segments` — link
  identity: every link is a hashable id, and the
  :class:`~repro.hardware.sci.flows.FlowNetwork` accounts demand and
  saturation **per link**, so cross-switch hops contend independently of
  ringlet-local ones;
* :meth:`~Topology.distance` — hop count, for cost models;
* :meth:`~Topology.ringlet_of` / :meth:`~Topology.ringlet_label` — which
  ring (or switch) a link belongs to, keying the per-ringlet Perfetto
  tracks off real topology identity;
* :meth:`~Topology.link_kind` / :meth:`~Topology.link_capacity` —
  ringlet-local vs. cross-switch classification and per-link bandwidth
  (fat-tree up-links are wider than host links);
* :meth:`~Topology.node_group` — the locality domain of a node, which
  the hierarchical collectives use to aggregate ringlet-local before
  crossing a switch.

Four implementations: the paper's single :class:`RingTopology` ringlet,
the multi-dimensional :class:`TorusTopology` of ringlets, the switched
:class:`RingOfRings` (ringlets joined by a central crossbar — the
"switched multi-ringlet" configuration), and a two-level :class:`FatTree`
with widened spine links.  Ring and torus routing are **bit-identical**
to the pre-protocol implementations; ``tests/test_topology.py`` holds the
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

__all__ = [
    "FatTree",
    "RingOfRings",
    "RingTopology",
    "Route",
    "TOPOLOGY_NAMES",
    "Topology",
    "TorusTopology",
    "topology_from_name",
]

#: Names :func:`topology_from_name` accepts (the CLI / CI matrix axis).
TOPOLOGY_NAMES = ("ring", "torus", "ring_of_rings", "fat_tree")


@dataclass(frozen=True)
class Route:
    """Links a transfer occupies: forward (data) and return (echo) arcs.

    Link identifiers are hashable tokens; for a ring, link ``i`` is the
    cable from node ``i`` to node ``i+1 mod N``.
    """

    data_segments: tuple[object, ...]
    echo_segments: tuple[object, ...]

    @property
    def hops(self) -> int:
        return len(self.data_segments)


class Topology:
    """The common protocol every fabric topology implements.

    Subclasses must provide ``n_nodes``, :meth:`segments` and
    :meth:`_compute_route`; everything else has a single-ring default.
    A topology is immutable once built — :meth:`route` relies on it.
    """

    n_nodes: int

    def __init__(self) -> None:
        #: Routes resolved so far, by ``(src, dst)`` (used pairs only).
        self._routes: dict[tuple[int, int], Route] = {}

    # -- routing (required) ----------------------------------------------------

    def segments(self) -> list:
        """Every link id of the fabric (the FlowNetwork's capacity keys)."""
        raise NotImplementedError

    def route(self, src: int, dst: int) -> Route:
        """Data and echo links of a transfer ``src -> dst``, resolved once
        (invalid endpoints raise on every call: a failure is not stored)."""
        try:
            return self._routes[src, dst]
        except KeyError:
            route = self._routes[src, dst] = self._compute_route(src, dst)
            return route

    def _compute_route(self, src: int, dst: int) -> Route:
        """Validate the endpoints and build the route ``src -> dst``."""
        raise NotImplementedError

    def distance(self, src: int, dst: int) -> int:
        """Number of links the data crosses from src to dst."""
        return self.route(src, dst).hops

    def links_on(self, route: Route) -> tuple:
        """The links whose bandwidth the data of ``route`` consumes."""
        return route.data_segments

    # -- link identity (observability) -----------------------------------------

    def ringlet_of(self, link) -> Hashable:
        """Stable identity of the ring (or switch) ``link`` belongs to.

        The fabric numbers these keys in first-use order to produce the
        dense ringlet ids that key the Perfetto fabric tracks.
        """
        return "ring"

    def ringlet_label(self, key: Hashable) -> Optional[str]:
        """Human-readable track name for a :meth:`ringlet_of` key.

        ``None`` keeps the exporter's default ``ringlet <id>`` naming.
        """
        return None

    # -- link classification / capacity ----------------------------------------

    def link_kind(self, link) -> str:
        """``"local"`` (ringlet-internal) or ``"cross"`` (switch hop)."""
        return "local"

    def link_capacity(self, link, base_bandwidth: float) -> float:
        """Capacity of ``link`` given the adapter's nominal bandwidth."""
        return base_bandwidth

    # -- locality (hierarchical collectives) -----------------------------------

    def node_group(self, node: int) -> int:
        """Locality-domain index of ``node`` (its ringlet / leaf switch).

        Hierarchical collectives aggregate within a group before any
        cross-switch hop; a single-domain topology returns 0 for every
        node and keeps the flat algorithms.
        """
        return 0

    @property
    def n_groups(self) -> int:
        """Number of distinct locality domains."""
        return len({self.node_group(n) for n in range(self.n_nodes)})

    def describe(self) -> dict:
        """JSON-ready topology summary (scenario reports, CLI metadata)."""
        return {
            "kind": type(self).__name__,
            "n_groups": self.n_groups,
            "n_links": len(self.segments()),
            "n_nodes": self.n_nodes,
        }

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(
                f"node {node} outside {type(self).__name__} of {self.n_nodes}"
            )


class RingTopology(Topology):
    """A single unidirectional SCI ringlet of ``n_nodes`` nodes.

    A transfer from *src* to *dst* occupies every link on the forward arc
    from *src* to *dst*; the flow-control echo returns over the remaining
    arc (completing the loop), which is why even a neighbour-to-neighbour
    transfer puts some traffic on every link of the ring (Sec. 5.3).
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError(f"need at least 1 node, got {n_nodes}")
        super().__init__()
        self.n_nodes = n_nodes

    def segments(self) -> list[int]:
        """All link ids (link i: node i -> node i+1 mod N)."""
        return list(range(self.n_nodes))

    def distance(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        return (dst - src) % self.n_nodes

    def _compute_route(self, src: int, dst: int) -> Route:
        self._check(src)
        self._check(dst)
        if src == dst:
            return Route((), ())
        d = self.distance(src, dst)
        data = tuple((src + k) % self.n_nodes for k in range(d))
        echo = tuple((dst + k) % self.n_nodes for k in range(self.n_nodes - d))
        return Route(data, echo)

    def __repr__(self) -> str:
        return f"RingTopology(n_nodes={self.n_nodes})"


class TorusTopology(Topology):
    """A k-dimensional torus of ringlets (dimension-order routing).

    Node ids are flat integers; ``dims`` gives the ring length per
    dimension.  Each dimension contributes an independent set of ringlets;
    a transfer crosses, per dimension where coordinates differ, the forward
    arc of the ringlet shared by the two coordinates (all other coordinates
    already routed, dimension order).  This is the "512 nodes with 8-node
    ringlets in a 3D-torus" configuration from the paper's outlook.
    """

    def __init__(self, dims: tuple[int, ...]):
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid torus dims: {dims}")
        super().__init__()
        self.dims = tuple(dims)
        self.n_nodes = 1
        for d in self.dims:
            self.n_nodes *= d

    def coords(self, node: int) -> tuple[int, ...]:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside torus of {self.n_nodes}")
        out = []
        for d in self.dims:
            out.append(node % d)
            node //= d
        return tuple(out)

    def node_at(self, coords: tuple[int, ...]) -> int:
        if len(coords) != len(self.dims):
            raise ValueError("coordinate rank mismatch")
        node = 0
        mult = 1
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {c} outside dimension of size {d}")
            node += c * mult
            mult *= d
        return node

    def segments(self) -> list[tuple]:
        """All link ids: (dim, ring_key, position)."""
        out: list[tuple] = []
        for node in range(self.n_nodes):
            c = self.coords(node)
            for dim, size in enumerate(self.dims):
                if size > 1:
                    ring_key = tuple(v for i, v in enumerate(c) if i != dim)
                    out.append((dim, ring_key, c[dim]))
        return out

    def distance(self, src: int, dst: int) -> int:
        cs, cd = self.coords(src), self.coords(dst)
        return sum((cd[i] - cs[i]) % self.dims[i] for i in range(len(self.dims)))

    def _compute_route(self, src: int, dst: int) -> Route:
        cs, cd = self.coords(src), self.coords(dst)
        data: list[tuple] = []
        echo: list[tuple] = []
        current = list(cs)
        for dim, size in enumerate(self.dims):
            if cs[dim] == cd[dim] or size == 1:
                continue
            ring_key = tuple(v for i, v in enumerate(current) if i != dim)
            d = (cd[dim] - current[dim]) % size
            for k in range(d):
                data.append((dim, ring_key, (current[dim] + k) % size))
            for k in range(size - d):
                echo.append((dim, ring_key, (cd[dim] + k) % size))
            current[dim] = cd[dim]
        return Route(tuple(data), tuple(echo))

    def ringlet_of(self, link) -> Hashable:
        return link[:-1]

    def node_group(self, node: int) -> int:
        """Nodes sharing a dimension-0 ringlet form one locality domain."""
        if self.dims[0] >= self.n_nodes:
            return 0
        return node // self.dims[0]

    def __repr__(self) -> str:
        return f"TorusTopology(dims={self.dims})"


class RingOfRings(Topology):
    """Switched multi-ringlet fabric: ringlets joined by a crossbar.

    ``n_ringlets`` unidirectional ringlets of ``ringlet_size`` nodes
    each; every ringlet carries one extra position — its *switch port* —
    through which traffic enters and leaves the central crossbar.  Node
    ``n`` lives at position ``n % ringlet_size`` of ringlet
    ``n // ringlet_size``; the switch port sits at position
    ``ringlet_size``.

    Links:

    * ``("r", r, p)`` — ringlet ``r``'s cable out of position ``p``
      (positions ``0..ringlet_size``, the last being the switch port);
    * ``("x", r)`` — the crossbar's egress port into ringlet ``r``
      (output contention: every transfer *entering* ringlet ``r`` from
      any other ringlet shares this link).

    A ringlet-local transfer is routed exactly like a plain ring (data
    forward arc, echo completing the loop).  A cross-ringlet transfer
    rides its source ringlet to the switch port, crosses the crossbar
    egress link of the destination ringlet, and rides that ringlet from
    the switch port to the destination; the flow-control echo completes
    each traversed ringlet's loop (the crossbar is a switched,
    full-duplex hop and carries no echo).
    """

    def __init__(self, n_ringlets: int, ringlet_size: int,
                 switch_capacity: float = 1.0):
        if n_ringlets < 1 or ringlet_size < 1:
            raise ValueError(
                f"need >= 1 ringlet of >= 1 node, got "
                f"{n_ringlets} x {ringlet_size}"
            )
        if switch_capacity <= 0:
            raise ValueError(f"non-positive switch capacity: {switch_capacity}")
        super().__init__()
        self.n_ringlets = n_ringlets
        self.ringlet_size = ringlet_size
        self.switch_capacity = switch_capacity
        self.n_nodes = n_ringlets * ringlet_size

    def _pos(self, node: int) -> tuple[int, int]:
        """(ringlet, position) of ``node``."""
        return divmod(node, self.ringlet_size)

    def _arc(self, ringlet: int, start: int, stop: int) -> list[tuple]:
        """Forward links of ringlet ``ringlet`` from position ``start`` to
        ``stop`` (positions live on the ring of ``ringlet_size + 1``)."""
        loop = self.ringlet_size + 1
        d = (stop - start) % loop
        return [("r", ringlet, (start + k) % loop) for k in range(d)]

    def segments(self) -> list[tuple]:
        out: list[tuple] = []
        for r in range(self.n_ringlets):
            out.extend(("r", r, p) for p in range(self.ringlet_size + 1))
        if self.n_ringlets > 1:
            out.extend(("x", r) for r in range(self.n_ringlets))
        return out

    def _compute_route(self, src: int, dst: int) -> Route:
        self._check(src)
        self._check(dst)
        if src == dst:
            return Route((), ())
        ra, i = self._pos(src)
        rb, j = self._pos(dst)
        port = self.ringlet_size
        if ra == rb:
            data = self._arc(ra, i, j)
            echo = self._arc(ra, j, i)
            return Route(tuple(data), tuple(echo))
        data = self._arc(ra, i, port) + [("x", rb)] + self._arc(rb, port, j)
        echo = self._arc(ra, port, i) + self._arc(rb, j, port)
        return Route(tuple(data), tuple(echo))

    def ringlet_of(self, link) -> Hashable:
        if link[0] == "x":
            return "switch"
        return ("r", link[1])

    def ringlet_label(self, key: Hashable) -> Optional[str]:
        if key == "switch":
            return "switch"
        return f"ringlet {key[1]}"

    def link_kind(self, link) -> str:
        return "cross" if link[0] == "x" else "local"

    def link_capacity(self, link, base_bandwidth: float) -> float:
        if link[0] == "x":
            return self.switch_capacity * base_bandwidth
        return base_bandwidth

    def node_group(self, node: int) -> int:
        return node // self.ringlet_size

    def describe(self) -> dict:
        return {
            **super().describe(),
            "n_ringlets": self.n_ringlets,
            "ringlet_size": self.ringlet_size,
            "switch_capacity": self.switch_capacity,
        }

    def __repr__(self) -> str:
        return (f"RingOfRings(n_ringlets={self.n_ringlets}, "
                f"ringlet_size={self.ringlet_size})")


class FatTree(Topology):
    """Two-level fat tree: leaf switches under one widened spine.

    ``n_leaves`` leaf switches each serve ``arity`` hosts; leaf up/down
    links into the spine are ``fat_factor`` times as wide as host links
    (default: ``arity``, i.e. full bisection — the "fat" in fat-tree).
    Every link is switched and full-duplex, so up and down directions
    are independent links and routes carry no ring-style echo; the
    reverse-direction acknowledgement traffic is modelled as the echo
    arc over the mirror links.

    Links:

    * ``("h", n, "up")`` / ``("h", n, "dn")`` — host ``n``'s up/down
      cable to its leaf switch;
    * ``("l", s, "up")`` / ``("l", s, "dn")`` — leaf switch ``s``'s
      up/down cable to the spine (capacity ``fat_factor`` x host).
    """

    def __init__(self, n_leaves: int, arity: int,
                 fat_factor: Optional[float] = None):
        if n_leaves < 1 or arity < 1:
            raise ValueError(
                f"need >= 1 leaf of >= 1 host, got {n_leaves} x {arity}"
            )
        super().__init__()
        self.n_leaves = n_leaves
        self.arity = arity
        self.fat_factor = float(fat_factor if fat_factor is not None else arity)
        if self.fat_factor <= 0:
            raise ValueError(f"non-positive fat factor: {self.fat_factor}")
        self.n_nodes = n_leaves * arity

    def leaf_of(self, node: int) -> int:
        return node // self.arity

    def segments(self) -> list[tuple]:
        out: list[tuple] = []
        for n in range(self.n_nodes):
            out.append(("h", n, "up"))
            out.append(("h", n, "dn"))
        if self.n_leaves > 1:
            for s in range(self.n_leaves):
                out.append(("l", s, "up"))
                out.append(("l", s, "dn"))
        return out

    def _compute_route(self, src: int, dst: int) -> Route:
        self._check(src)
        self._check(dst)
        if src == dst:
            return Route((), ())
        ls, ld = self.leaf_of(src), self.leaf_of(dst)
        if ls == ld:
            data = (("h", src, "up"), ("h", dst, "dn"))
            echo = (("h", dst, "up"), ("h", src, "dn"))
            return Route(data, echo)
        data = (("h", src, "up"), ("l", ls, "up"),
                ("l", ld, "dn"), ("h", dst, "dn"))
        echo = (("h", dst, "up"), ("l", ld, "up"),
                ("l", ls, "dn"), ("h", src, "dn"))
        return Route(data, echo)

    def distance(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        return 2 if self.leaf_of(src) == self.leaf_of(dst) else 4

    def ringlet_of(self, link) -> Hashable:
        if link[0] == "l":
            return "spine"
        return ("leaf", self.leaf_of(link[1]))

    def ringlet_label(self, key: Hashable) -> Optional[str]:
        if key == "spine":
            return "spine"
        return f"leaf {key[1]}"

    def link_kind(self, link) -> str:
        return "cross" if link[0] == "l" else "local"

    def link_capacity(self, link, base_bandwidth: float) -> float:
        if link[0] == "l":
            return self.fat_factor * base_bandwidth
        return base_bandwidth

    def node_group(self, node: int) -> int:
        return self.leaf_of(node)

    def describe(self) -> dict:
        return {
            **super().describe(),
            "arity": self.arity,
            "fat_factor": self.fat_factor,
            "n_leaves": self.n_leaves,
        }

    def __repr__(self) -> str:
        return f"FatTree(n_leaves={self.n_leaves}, arity={self.arity})"


def topology_from_name(name: str, n_nodes: int) -> Topology:
    """Build a named topology sized for ``n_nodes`` (CLI / CI matrix).

    ``ring`` is exact; the structured topologies pick balanced shapes
    (``torus`` a near-square 2-D grid, ``ring_of_rings`` and ``fat_tree``
    four domains) and require ``n_nodes`` to factor accordingly.
    """
    if name == "ring":
        return RingTopology(n_nodes)
    if name == "torus":
        side = max(2, int(round(n_nodes ** 0.5)))
        while n_nodes % side:
            side -= 1
        return TorusTopology((side, n_nodes // side))
    if name == "ring_of_rings":
        groups = 4 if n_nodes % 4 == 0 and n_nodes >= 8 else 2
        if n_nodes % groups:
            raise ValueError(f"{n_nodes} nodes do not split into {groups} ringlets")
        return RingOfRings(groups, n_nodes // groups)
    if name == "fat_tree":
        groups = 4 if n_nodes % 4 == 0 and n_nodes >= 8 else 2
        if n_nodes % groups:
            raise ValueError(f"{n_nodes} nodes do not split into {groups} leaves")
        return FatTree(groups, n_nodes // groups)
    raise ValueError(
        f"unknown topology {name!r} "
        "(have: ring, torus, ring_of_rings, fat_tree)"
    )
