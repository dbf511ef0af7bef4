"""Server groups: the routing surface of the simulator.

A :class:`Group` is a *family* of equally-sized server tuples over one
:class:`~repro.mpc.cluster.Cluster`.  Most groups have a single member; the
family generalization exists for the paper's Section 3.2 Case 2, where a
``p1 x p2 x ... x pk`` hypercube of servers runs the *same* sub-join along
every grid line of a dimension.  Simulating one representative line and
charging the identical load to every member keeps the simulation cost at
``sum p_i`` instead of ``prod p_i`` while preserving the exact ledger the
real execution would produce (the replicas are deterministic copies).

All message delivery funnels through :meth:`Group.exchange`, which
delivers in process — the backend only decides where local compute runs
(:meth:`Group.map_parts`); higher-level helpers (hash routing, gather)
and the Section 2 primitives in :mod:`repro.mpc.primitives` build on it.
Steps whose messages nobody reads — :meth:`Group.broadcast`, the PSRS
kernel's shuffle — post their per-server counts straight to the ledger
entry point ``exchange`` uses, :meth:`Cluster.tally_members
<repro.mpc.cluster.Cluster.tally_members>`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

from repro.errors import MPCError
from repro.mpc.cluster import Cluster
from repro.mpc.hashing import stable_hash

__all__ = ["Grid", "Group"]


class Grid:
    """A ``dims[0] x ... x dims[k-1]`` hypercube of cells, numbered
    row-major: cell ``sum(coords[i] * strides[i])``.  Every HyperCube route
    addresses its cells here."""

    def __init__(self, dims: Sequence[int]) -> None:
        self.dims = tuple(dims)
        self.strides = tuple(math.prod(self.dims[i + 1:]) for i in range(len(self.dims)))
        self._cells: dict[tuple[int | None, ...], tuple[int, ...]] = {}

    def cells(self, fixed: tuple[int | None, ...]) -> tuple[int, ...]:
        """The cells whose coordinate ``i`` is ``fixed[i]`` (``None``: any),
        in row-major order (memoised)."""
        got = self._cells.get(fixed)
        if got is None:
            got = (0,)
            for d, stride, c in zip(self.dims, self.strides, fixed):
                steps = range(d) if c is None else (c,)
                got = tuple(cell + v * stride for cell in got for v in steps)
            self._cells[fixed] = got
        return got


class Group:
    """A family of equally-sized server tuples on a cluster.

    Args:
        cluster: The owning cluster.
        members: Non-empty list of tuples of global server ids; all tuples
            must have the same length (the group *size*).  ``members[0]`` is
            the representative on which data physically lives in the
            simulation; the others are deterministic replicas whose load is
            tallied identically.
    """

    def __init__(self, cluster: Cluster, members: Sequence[tuple[int, ...]]) -> None:
        if not members:
            raise MPCError("group needs at least one member")
        size = len(members[0])
        if size == 0:
            raise MPCError("group members must be non-empty")
        for m in members:
            if len(m) != size:
                raise MPCError("all group members must have equal size")
        self.cluster = cluster
        self.members: tuple[tuple[int, ...], ...] = tuple(tuple(m) for m in members)
        self.size = size

    # ------------------------------------------------------------------
    @property
    def representative(self) -> tuple[int, ...]:
        return self.members[0]

    def subgroup(self, local_indices: Sequence[int]) -> "Group":
        """Group over a subset of local indices (across every member)."""
        if not local_indices:
            raise MPCError("subgroup needs at least one server")
        for i in local_indices:
            if not 0 <= i < self.size:
                raise MPCError(f"local index {i} out of range [0, {self.size})")
        return Group(
            self.cluster,
            [tuple(m[i] for i in local_indices) for m in self.members],
        )

    def slice(self, start: int, stop: int) -> "Group":
        """Contiguous subgroup ``[start, stop)``."""
        return self.subgroup(list(range(start, stop)))

    def grid_line_groups(self, dims: Sequence[int]) -> list["Group"]:
        """Families of grid lines for a ``dims[0] x ... x dims[k-1]`` hypercube.

        Requires ``prod(dims) <= size``; uses the first ``prod(dims)`` local
        servers, linearized row-major.  Returns one :class:`Group` per
        dimension ``i`` whose members are all lines along that dimension
        (across all existing members), i.e. the server groups that jointly
        compute sub-join ``i`` in paper Section 3.2 Case 2.
        """
        total = math.prod(dims)
        if total > self.size:
            raise MPCError(f"grid {dims} needs {total} servers, group has {self.size}")
        grid = Grid(dims)
        groups: list[Group] = []
        for i, (d, stride) in enumerate(zip(grid.dims, grid.strides)):
            # A line starts at each cell whose coordinate i is 0.
            starts = grid.cells(tuple(0 if j == i else None for j in range(len(dims))))
            groups.append(Group(self.cluster, [
                tuple(base[start + v * stride] for v in range(d))
                for base in self.members for start in starts
            ]))
        return groups

    # ------------------------------------------------------------------
    # The one true data-movement operation.
    # ------------------------------------------------------------------
    def exchange(
        self,
        outboxes: Sequence[Iterable[tuple[int, Any]]],
        label: str,
    ) -> list[list[Any]]:
        """Deliver messages and tally the received units on every member.

        Args:
            outboxes: ``outboxes[i]`` holds the messages sent by local
                server ``i`` as ``(dst_local_index, payload)`` pairs.  One
                payload is one unit of communication (the model charges a
                tuple or a machine word each as one unit).
            label: Ledger label (phase name).  A message from a server to
                itself costs nothing: data a server already holds does not
                traverse the network.

        Returns:
            ``inboxes[j]``: payloads received by local server ``j``, in
            sender order.

        Raises:
            MPCError: on an outbox count other than the group size or an
                out-of-range destination.
        """
        size = self.size
        if len(outboxes) != size:
            raise MPCError(
                f"expected {size} outboxes, got {len(outboxes)}"
            )
        inboxes: list[list[Any]] = [[] for _ in range(size)]
        appends = [box.append for box in inboxes]
        counts = [0] * size
        for src, box in enumerate(outboxes):
            for dst, payload in box:
                if dst < 0 or dst >= size:
                    raise MPCError(f"destination {dst} out of range [0, {size})")
                appends[dst](payload)
                if dst != src:
                    counts[dst] += 1
        # The replicas of a family receive alike: one batched ledger post.
        self.cluster.tally_members(self.members, counts, label)
        return inboxes

    def map_parts(
        self,
        fn: Callable[[list, Any, int], Any],
        parts: Sequence[list],
        common: Any = None,
        owner: Any = None,
    ) -> list[Any]:
        """Run a pure per-server computation through the cluster's backend.

        ``fn(part, common, index)`` must be a module-level pure function of
        its arguments (so a backend may execute it in another process);
        ``common`` must be picklable.  Local computation is free in the MPC
        model — nothing is tallied.  ``owner`` (typically the
        :class:`~repro.mpc.distrel.DistRelation` the parts belong to) lets
        backends memoize per-part results across calls; pass it whenever
        the parts are immutable.
        """
        if len(parts) != self.size:
            raise MPCError(
                f"expected {self.size} parts, got {len(parts)}"
            )
        cluster = self.cluster
        # Routed through run_ops (the backend's only operation) so the
        # cluster's per-query wire meter and trace span ride along; the
        # span is the innermost open primitive's, or None when untraced.
        return cluster.backend.run_ops(
            [(fn, parts, common, owner)],
            meter=cluster.wire_meter,
            span=cluster.obs_span,
        )[0]

    # ------------------------------------------------------------------
    # Convenience routings built on exchange.
    # ------------------------------------------------------------------
    def route(
        self,
        parts: Sequence[Iterable[Any]],
        dest_fn: Callable[[Any], int],
        label: str,
    ) -> list[list[Any]]:
        """Route each item of each part to ``dest_fn(item)``."""
        outboxes = [
            [(dest_fn(item), item) for item in part] for part in parts
        ]
        return self.exchange(outboxes, label)

    def hash_route(
        self,
        parts: Sequence[Iterable[Any]],
        key_fn: Callable[[Any], Any],
        label: str,
        salt: int = 0,
    ) -> list[list[Any]]:
        """Route items by a stable hash of their key: equal keys
        (``1``/``True``/``1.0``) land on one server."""
        size = self.size
        return self.route(
            parts, lambda item: stable_hash(key_fn(item), salt) % size, label
        )

    def broadcast(self, items: Sequence[Any], label: str, src: int = 0) -> None:
        """Replicate ``items`` (held by local server ``src``) to every server.

        Every server (except the sender) receives ``len(items)`` units.  The
        caller keeps using the same Python objects; only the ledger moves,
        so the step is charged by count — no backend sees a message.
        """
        counts = [len(items)] * self.size
        counts[src] = 0
        self.cluster.tally_members(self.members, counts, label)

    def gather(
        self, parts: Sequence[Iterable[Any]], label: str, dst: int = 0
    ) -> list[Any]:
        """Collect all items on local server ``dst`` (the coordinator)."""
        outboxes = [[(dst, item) for item in part] for part in parts]
        inboxes = self.exchange(outboxes, label)
        return inboxes[dst]

    def __repr__(self) -> str:
        fam = f" x{len(self.members)}" if len(self.members) > 1 else ""
        return f"Group<size={self.size}{fam}>"
