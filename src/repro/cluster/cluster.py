"""Cluster builder + boot orchestration."""

from __future__ import annotations

from typing import Optional, Union

from repro.sim import Environment, resolve_engine
from repro.hw.myrinet import topology as fabric_topology
from repro.hw.myrinet.topology import TopologySpec
from repro.hostos.ethernet import EthernetNetwork
from repro.vmmc.mapping_lcp import MappingPhase, MappingResult
from repro.cluster.config import TestbedConfig
from repro.cluster.node import Node


class Cluster:
    """A bootable simulated cluster.

    Usage::

        cluster = Cluster.build()        # 4-node paper testbed, booted
        big = Cluster.build(topology="fattree:8,h=2")   # 64-node fat-tree
        env = cluster.env
        p0, ep0 = cluster.nodes[0].attach_process("sender")
        p1, ep1 = cluster.nodes[1].attach_process("receiver")
        ... run application generators with env.process / env.run ...
    """

    def __init__(self, env: Environment, config: TestbedConfig):
        self.env = env
        #: The resolved, validated fabric spec (declarative ground truth).
        self.topology: TopologySpec = fabric_topology.resolve(
            config.topology, nhosts=config.nnodes)
        if self.topology.nhosts != config.nnodes:
            # Non-legacy specs fix their own host count; the cluster
            # follows the fabric.
            config = config.with_(nnodes=self.topology.nhosts)
        self.config = config
        self.fabric = fabric_topology.build(self.topology, env, config.link)
        self.ether = EthernetNetwork(env, config.ethernet)
        self.nodes = [
            Node(env, name, i, self.fabric, self.ether, config)
            for i, name in enumerate(self.fabric.host_names)
        ]
        self.mapping: Optional[MappingResult] = None

    def boot(self) -> MappingResult:
        """Run the mapping phase, then start every node's LCP + daemon.

        Mirrors the section-4.3 life cycle: mapping LCP first, replaced by
        the VMMC LCP with static routing tables.  The cluster's node
        numbering is authoritative: the mapping phase verifies and
        installs routes against these indices.
        """
        phase = MappingPhase(self.env, self.fabric,
                             {n.name: n.nic for n in self.nodes},
                             indices={n.name: n.index for n in self.nodes})
        mapping_proc = phase.run()
        result = self.env.run(until=mapping_proc)
        for node in self.nodes:
            node.boot(result.routes[node.name])
        self.mapping = result
        return result

    @classmethod
    def build(cls, config: TestbedConfig | None = None,
              env: Environment | None = None,
              topology: Union[str, TopologySpec, None] = None,
              engine: str | None = None) -> "Cluster":
        """Construct and boot a cluster (defaults: the paper's testbed).

        ``topology`` overrides the config's fabric: a
        :class:`~repro.hw.myrinet.topology.TopologySpec` or a compact
        string like ``"fattree:8,h=2"`` / ``"mesh:8x8"``; ``nnodes``
        follows the spec.

        ``engine`` must be ``None`` or ``"scalar"`` (else
        :class:`~repro.sim.SimulationError`); kept because
        ``perfbench/tracing.py:207`` passes it by position.
        """
        resolve_engine(engine)
        config = config or TestbedConfig()
        if topology is not None:
            spec = fabric_topology.resolve(topology, nhosts=config.nnodes)
            config = config.with_(topology=spec, nnodes=spec.nhosts)
        cluster = cls(env or Environment(), config)
        cluster.boot()
        return cluster

    def node(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def sram_usage(self) -> dict[str, dict[str, int]]:
        """Per-node NIC SRAM accounting (section-6 resource costs)."""
        return {n.name: n.nic.sram_usage() for n in self.nodes}
