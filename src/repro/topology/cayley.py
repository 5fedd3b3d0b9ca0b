"""Cayley-graph topologies: the general setting for the O(CN) reduction.

Section 4's vertex-symmetric reduction needs exactly one structure: a
group acting simply transitively on the nodes and carrying channels to
channels.  Cayley graphs of abelian groups (torus = Z_k^n, hypercube =
Z_2^n) provide it, with a uniform channel layout — channel
``v * num_classes + cls`` leaves node ``v`` with direction class
``cls`` — so translation of a channel is pure index arithmetic.

:class:`CayleyTopology` captures that contract; the flow LPs, the
translation tables and the exact worst-case evaluator are all written
against it, which is what lets the same machinery run on tori and
hypercubes unchanged.
"""

from __future__ import annotations

import abc
from functools import cached_property

import numpy as np

from repro.topology.network import Network


def scalar_or_array(value: np.ndarray):
    """Collapse a 0-d index result to a Python ``int``.

    The channel-structure accessors promise "scalar in, scalar out":
    a 0-d ndarray breaks ``dict`` keying and ``is``/identity-sensitive
    comparisons downstream, so scalar inputs must come back as real
    ``int``.  Array inputs pass through as ``int64`` arrays.
    """
    if value.ndim == 0:
        return int(value)
    return value.astype(np.int64, copy=False)


class CayleyTopology(Network, abc.ABC):
    """A vertex-transitive network with an explicit translation group.

    Subclasses must lay channels out as ``v * num_classes + cls`` and
    implement the group operations; everything else (class membership,
    channel translation) is derived here.
    """

    @property
    @abc.abstractmethod
    def num_classes(self) -> int:
        """Number of channel direction classes (out-degree per node)."""

    @abc.abstractmethod
    def add_nodes(self, a, b):
        """Group sum ``a + b`` (vectorized over node ids)."""

    @abc.abstractmethod
    def sub_nodes(self, a, b):
        """Group difference ``a - b`` (vectorized over node ids)."""

    def translation_rows(self, src: int) -> tuple[list[int], list[int]]:
        """Plain-list rows ``(add, offset)`` with ``add[v] = v + src`` and
        ``offset[v] = v - src``.

        Translating a canonical-source path to source ``src`` is then one
        list lookup per node, with plain ``int`` results.  Rows are built
        lazily per source and kept on this instance; callers share them
        and must not modify them.
        """
        rows = self._translation_rows.get(src)
        if rows is None:
            ids = np.arange(self.num_nodes)
            rows = (
                self.add_nodes(ids, src).tolist(),
                self.sub_nodes(ids, src).tolist(),
            )
            self._translation_rows[src] = rows
        return rows

    @cached_property
    def _translation_rows(self) -> dict[int, tuple[list[int], list[int]]]:
        return {}

    # ------------------------------------------------------------------
    # Derived channel structure
    # ------------------------------------------------------------------
    def channel_node(self, channel):
        """Source node of ``channel`` (scalar in, ``int`` out; array in,
        array out)."""
        return scalar_or_array(np.asarray(channel) // self.num_classes)

    def channel_class(self, channel):
        """Direction class of ``channel`` (scalar in, ``int`` out)."""
        return scalar_or_array(np.asarray(channel) % self.num_classes)

    def class_representatives(self) -> np.ndarray:
        """One representative channel per class (those at node 0)."""
        return np.arange(self.num_classes, dtype=np.int64)

    def class_members(self, cls: int) -> np.ndarray:
        """All channels in direction class ``cls``."""
        return (
            np.arange(self.num_nodes, dtype=np.int64) * self.num_classes + cls
        )

    def translate_channels(self, channels, shift):
        """Translate channels by the group element ``shift``."""
        channels = np.asarray(channels)
        nodes = channels // self.num_classes
        cls = channels % self.num_classes
        moved = self.add_nodes(nodes, shift)
        return moved * self.num_classes + cls
