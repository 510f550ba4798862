"""Physical layout of the security-metadata region.

Counter-mode encryption keeps its metadata *in memory* (§II-C): MECBs,
FECBs, Merkle-tree nodes, and FsEncr's encrypted-OTT spill region all
occupy reserved physical ranges above the data region.  Their addresses
matter to the timing model — a metadata-cache miss turns into a real NVM
access at that address, with its own row-buffer behaviour — so the layout
is computed once here and shared by every component.

Layout (one line = 64 B):

    [0, data_bytes)                        data (memory + DAX files)
    [mecb_base, +lines_of(pages))          one MECB line per 4 KB data page
    [fecb_base, +lines_of(pages))          one FECB line per 4 KB data page
                                           ("a file encryption counter
                                           block follows each memory
                                           encryption counter block" —
                                           modelled as a parallel array,
                                           which keeps indexing trivial
                                           and preserves the 1:1 pairing)
    [ott_base, +ott_region_bytes)          encrypted OTT hash table
    [mt_base(level), ...)                  Merkle-tree levels, leaves up

Every config-derived quantity (region sizes and bases, the Merkle level
count, ``total_bytes``) is a ``cached_property``: it is computed on first
use and then read from the instance, because the controller asks for it
on every line access.  The Merkle geometry is one table of ``(base,
nodes)`` per stored level, so ``merkle_node_addr`` is an index and a
multiply.  The cache lives outside the dataclass fields, so equality,
hashing, ``dataclasses.replace`` and pickles see only the three fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Tuple

from ..mem.address import LINE_SIZE, PAGE_SIZE

__all__ = ["MetadataLayout"]


@dataclass(frozen=True)
class MetadataLayout:
    """Address carving for a machine with ``data_bytes`` of protected data."""

    data_bytes: int = 16 * 1024 * 1024 * 1024  # Table III: 16 GB
    ott_region_bytes: int = 256 * 1024  # spill area for evicted OTT entries
    merkle_arity: int = 8

    def __post_init__(self) -> None:
        if self.data_bytes <= 0 or self.data_bytes % PAGE_SIZE:
            raise ValueError("data_bytes must be positive and page aligned")
        if self.ott_region_bytes % LINE_SIZE:
            raise ValueError("ott_region_bytes must be line aligned")
        if self.merkle_arity < 2:
            raise ValueError("merkle arity must be >= 2")

    def __getstate__(self) -> Dict[str, int]:
        """Pickle the fields only, never the cached geometry."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- region sizes -------------------------------------------------------

    @cached_property
    def num_pages(self) -> int:
        return self.data_bytes // PAGE_SIZE

    @cached_property
    def counter_region_bytes(self) -> int:
        """Bytes of one counter array (MECB or FECB): one line per page."""
        return self.num_pages * LINE_SIZE

    # -- region bases -------------------------------------------------------

    @cached_property
    def mecb_base(self) -> int:
        return self.data_bytes

    @cached_property
    def fecb_base(self) -> int:
        return self.mecb_base + self.counter_region_bytes

    @cached_property
    def ott_base(self) -> int:
        return self.fecb_base + self.counter_region_bytes

    @cached_property
    def merkle_base(self) -> int:
        return self.ott_base + self.ott_region_bytes

    # -- per-page metadata addresses -----------------------------------------

    def mecb_addr(self, page: int) -> int:
        self._check_page(page)
        return self.mecb_base + page * LINE_SIZE

    def fecb_addr(self, page: int) -> int:
        self._check_page(page)
        return self.fecb_base + page * LINE_SIZE

    def ott_slot_addr(self, slot: int) -> int:
        addr = self.ott_base + slot * LINE_SIZE
        if addr >= self.merkle_base:
            raise ValueError(f"OTT slot {slot} outside the OTT region")
        return addr

    @cached_property
    def ott_slots(self) -> int:
        return self.ott_region_bytes // LINE_SIZE

    def _check_page(self, page: int) -> None:
        if page < 0 or page >= self.num_pages:
            raise ValueError(f"page {page} outside data region ({self.num_pages} pages)")

    # -- Merkle-tree geometry --------------------------------------------------

    @cached_property
    def merkle_leaves(self) -> int:
        """Leaf count: every protected metadata line is a leaf.

        The tree covers MECBs + FECBs + the encrypted OTT region (§VI
        "Integrity of Filesystem Encryption Counters and OTT").
        """
        protected_bytes = 2 * self.counter_region_bytes + self.ott_region_bytes
        return protected_bytes // LINE_SIZE

    @cached_property
    def _merkle_level_table(self) -> Tuple[Tuple[int, int], ...]:
        """``(base address, node count)`` of each stored level, leaf side
        first; the last level is the root's single child."""
        table = []
        base = self.merkle_base
        nodes = self.merkle_leaves
        while True:
            nodes = -(-nodes // self.merkle_arity)  # ceil division
            table.append((base, nodes))
            base += nodes * LINE_SIZE
            if nodes == 1:
                return tuple(table)

    @cached_property
    def merkle_levels(self) -> int:
        """Number of stored node levels, from the leaves' parents up to
        the root's only child (the root itself never lives in memory)."""
        return len(self._merkle_level_table)

    def merkle_leaf_index(self, metadata_addr: int) -> int:
        """Leaf index of a protected metadata line address."""
        if not self.mecb_base <= metadata_addr < self.merkle_base:
            raise ValueError(f"{metadata_addr:#x} is not a protected metadata address")
        return (metadata_addr - self.mecb_base) // LINE_SIZE

    def merkle_node_addr(self, level: int, index: int) -> int:
        """Memory address of a tree node (level 0 = parents of leaves).

        Leaves themselves are the metadata lines; internal levels are
        packed arrays laid out end to end above ``merkle_base``.
        """
        if level < 0:
            raise ValueError("level must be >= 0")
        table = self._merkle_level_table
        if level >= len(table):
            raise ValueError(f"level {level} outside the tree ({len(table)} levels)")
        base, nodes = table[level]
        if index >= nodes:
            raise ValueError(f"node index {index} out of range at level {level}")
        return base + index * LINE_SIZE

    @cached_property
    def total_bytes(self) -> int:
        """Upper bound of the whole layout (for address-space checks)."""
        base, nodes = self._merkle_level_table[-1]
        return base + nodes * LINE_SIZE
