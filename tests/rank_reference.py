"""The GF(2) leak rank that `postprocess._leak_rank` is checked against:
the column elimination it replaced.

Atoms and the spanning forest of passes 0 and 1 are built as there, but
every residual is formed, as an n-bit column per later atom, and the
columns go through a `ParitySpan` one by one. Memory is O(n * c / 64) for
c later atoms and time grows with n * c^2 / 64, so it serves tests only.
`upper_bound` gives the bound that the new rank certificate starts from,
and the component count of the graph of passes 0 and 1.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

import numpy as np

from blockqkd.postprocess import ParitySpan


def _atoms(
    orders: list[np.ndarray], segments: Iterable[tuple[int, int, int]]
) -> tuple[list[np.ndarray], list[int]]:
    """Each pass's atom index for every position, and its atom count: the
    segment ends of pass p, with 0 and n, cut orders[p] into atoms."""
    n = len(orders[0])
    told = np.fromiter(chain.from_iterable(segments), dtype=np.int64).reshape(-1, 3)
    atom_of, counts = [], []
    for p, order in enumerate(orders):
        cut = np.zeros(n + 1, dtype=np.int32)
        cut[told[told[:, 0] == p, 1:]] = 1  # pass p's segment ends
        cut[0] = 0  # 0 opens the first atom and n closes the last
        ids = np.empty(n, dtype=np.int32)
        ids[order] = np.cumsum(cut[:n])  # the cuts in (0, rank]
        atom_of.append(ids)
        counts.append(int(cut[:n].sum()) + 1)
    return atom_of, counts


def _forest(
    ends_u: np.ndarray, ends_v: np.ndarray, nodes: int, labels: np.ndarray
) -> tuple[int, np.ndarray]:
    """A spanning forest of the edges (ends_u[x], ends_v[x]), edge x
    labelled by the row labels[x] of uint64 words. Returns how many edges
    joined two trees, and each node's potential: the XOR of the labels on
    its tree path to its root.

    Each round hangs every root with an edge to a smaller root (a larger
    one, in alternate rounds, so that a root with many neighbours does not
    take a round each) under one such root through one such edge; pointer
    jumping then flattens every tree, XORing potentials on the way.
    """
    root = np.arange(nodes, dtype=np.int32)
    potential = np.zeros((nodes, labels.shape[1]), dtype=np.uint64)
    edges = np.arange(len(ends_u), dtype=np.int32)
    joins, upward = 0, False
    while True:
        ru, rv = root[ends_u[edges]], root[ends_v[edges]]
        live = ru != rv
        if not live.any():
            return joins, potential
        edges, ru, rv = edges[live], ru[live], rv[live]
        child, into = np.maximum(ru, rv), np.minimum(ru, rv)
        if upward:
            child, into = into, child
        upward = not upward
        pick = np.full(nodes, -1, dtype=np.int32)
        pick[child] = np.arange(len(child), dtype=np.int32)  # one edge per hanging root
        pick = pick[pick >= 0]
        x = edges[pick]
        potential[child[pick]] = potential[ends_u[x]] ^ potential[ends_v[x]] ^ labels[x]
        root[child[pick]] = into[pick]
        joins += len(pick)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            potential ^= potential[root]
            root = up


def leak_rank_reference(orders: list[np.ndarray], segments: Iterable[tuple[int, int, int]]) -> int:
    """GF(2) rank of the parities of orders[p][start:stop] over all
    (p, start, stop) in segments, computed without n-bit vectors.

    If every cut point of a pass is joined to 0 by a chain of its segments,
    as in cascade (each pass discloses all its blocks, and each search
    segment starts at a point already cut), the pass's parities span
    exactly its atoms' indicator vectors; otherwise that span is larger and
    the result an upper bound. Every position lies in one atom per pass, so
    the rank is that of the atoms-by-positions incidence matrix.

    Passes 0 and 1 hold most atoms. Their atoms are the nodes of a graph
    whose edges are the positions, each labelled with the bits of the
    later-pass atoms that contain it. The edges that join two trees count
    the rank of passes 0 and 1 alone. An edge's residual, its label XOR
    both ends' potentials, is the XOR of the labels around the cycle it
    closes (zero on tree edges), and a set of later-pass atoms lies in the
    span of passes 0 and 1 exactly when it meets every such cycle evenly.
    So the later passes add the rank of the residuals, taken over its few
    columns rather than its n rows.
    """
    atom_of, counts = _atoms(orders, segments)
    if len(orders) == 1:
        return counts[0]
    n, shift, total = len(orders[0]), 0, sum(counts[2:])
    labels = np.zeros((n, -(-total // 64)), dtype=np.uint64)
    for ids, count in zip(atom_of[2:], counts[2:]):
        bit = ids + shift  # atom j of this pass is bit shift + j of an edge's label
        labels[np.arange(n), bit >> 6] |= np.uint64(1) << (bit & 63).astype(np.uint64)
        shift += count
    ends_u, ends_v = atom_of[0], atom_of[1] + counts[0]
    joins, potential = _forest(ends_u, ends_v, counts[0] + counts[1], labels)
    span = ParitySpan()
    for k in range(labels.shape[1]):
        residual = labels[:, k] ^ potential[ends_u, k] ^ potential[ends_v, k]
        # row j of the transposed bytes holds bits 8j..8j+7 of every edge
        rows = np.ascontiguousarray(residual.view(np.uint8).reshape(n, 8).T)
        live = total - 64 * k  # label bits past this are zero in every edge
        for b in range(min(live, 8)):
            for column in np.packbits((rows[: (live - b + 7) // 8] >> b) & 1, axis=1):
                span.add(int.from_bytes(column.tobytes(), "big"))
    return joins + span.rank


def upper_bound(
    orders: list[np.ndarray], segments: Iterable[tuple[int, int, int]]
) -> tuple[int, int]:
    """The rank's upper bound joins + c - (passes - 2) for passes >= 3, and
    the number of components of the graph of passes 0 and 1."""
    atom_of, counts = _atoms(orders, segments)
    n = len(orders[0])
    joins, _ = _forest(
        atom_of[0], atom_of[1] + counts[0], counts[0] + counts[1], np.zeros((n, 1), dtype=np.uint64)
    )
    return joins + sum(counts[2:]) - (len(orders) - 2), counts[0] + counts[1] - joins
