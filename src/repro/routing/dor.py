"""Dimension-order routing (DOR) on tori (paper Table 1, ref [4]).

Packets route minimally one dimension at a time, dimension 0 (X) first
by default.  When the offset in a dimension is exactly ``k/2`` either
direction is minimal and routes are split evenly between the two — this
tie split is what makes DOR load-balanced enough to be the worst-case
optimal *minimal* algorithm on even-radix tori (Section 5.1).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.routing.base import ObliviousRouting
from repro.routing.paths import Path, build_path
from repro.topology.torus import Torus


def minimal_direction_choices(
    torus: Torus, src: int, dst: int
) -> list[tuple[dict[int, int], float]]:
    """Enumerate minimal direction assignments and their probabilities.

    Returns ``[(dirs, prob), ...]`` where ``dirs`` maps each dimension
    with nonzero offset to +1 or -1.  Ties (offset ``k/2``) contribute a
    factor of one half per tied dimension.
    """
    options: list[list[tuple[int, float]]] = []
    dims: list[int] = []
    for dim, choices in enumerate(torus.minimal_directions(src, dst)):
        if not choices:
            continue
        dims.append(dim)
        options.append([(c, 1.0 / len(choices)) for c in choices])
    combos: list[tuple[dict[int, int], float]] = []
    for combo in itertools.product(*options):
        dirs = {dim: c for dim, (c, _) in zip(dims, combo)}
        prob = 1.0
        for _, p in combo:
            prob *= p
        combos.append((dirs, prob))
    return combos


class DimensionOrderRouting(ObliviousRouting):
    """Minimal dimension-order routing.

    Parameters
    ----------
    torus:
        Target torus.
    order:
        Dimension traversal order; default ascending (X first).  IVAL's
        second phase uses the reversed order (Section 5.2).
    """

    translation_invariant = True

    def __init__(
        self, torus: Torus, order: Sequence[int] | None = None, name: str = "DOR"
    ) -> None:
        super().__init__(torus, name)
        self.order = tuple(order) if order is not None else tuple(range(torus.n))
        if sorted(self.order) != list(range(torus.n)):
            raise ValueError(f"order {self.order} is not a permutation of dims")
        self._canonical: dict[int, list[tuple[Path, float]]] = {}

    def path_distribution(self, src: int, dst: int) -> list[tuple[Path, float]]:
        return self.translated_distribution(src, dst)

    def translated_distribution(
        self, src: int, dst: int
    ) -> list[tuple[Path, float]]:
        """:meth:`path_distribution` as a plain translation of the cached
        canonical distribution for the offset ``dst - src``.

        VAL and IVAL call this directly for their two DOR phases: those
        ``2N`` lookups per commodity are steps of VAL's own distribution,
        not commodities in their own right.
        """
        if src == dst:
            return [((src,), 1.0)]
        torus: Torus = self.network  # type: ignore[assignment]
        add, offset = torus.translation_rows(src)
        canonical = self._canonical_distribution(offset[dst])
        if src == 0:
            return list(canonical)
        return [(tuple(map(add.__getitem__, p)), w) for p, w in canonical]

    def _canonical_distribution(self, t: int) -> list[tuple[Path, float]]:
        """The distribution for ``(0, t)``, built once per offset.

        The direction choices, their order and their probabilities depend
        only on the offset, so every other source's distribution is this
        one translated node by node.
        """
        dist = self._canonical.get(t)
        if dist is None:
            torus: Torus = self.network  # type: ignore[assignment]
            delta = torus.ring_delta(0, t)
            dist = []
            for dirs, prob in minimal_direction_choices(torus, 0, t):
                segments = [
                    (dim, dirs[dim], torus.hops(int(delta[dim]), dirs[dim]))
                    for dim in self.order
                    if dim in dirs
                ]
                dist.append((build_path(torus, 0, segments), prob))
            self._canonical[t] = dist
        return dist
