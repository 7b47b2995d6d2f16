"""A 4-level x86-64-style page table.

The structure mirrors what the paper's virtual-address-based prefetcher
walks (Figure 2): PGD -> PUD -> PMD -> PT, 512 entries per level.  The
leaf :class:`PageTableEntry` carries the control bits the ITS design
relies on — ``present`` for residency, and the repurposed spare-bit
``inv`` used by the fault-aware pre-execute policy (Section 3.4.2:
"several spare bits in the control-bit area of each page table entry can
be repurposed for the INV bit").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.vm.address import ENTRIES_PER_TABLE, VirtualAddress


@dataclass
class PageTableEntry:
    """One leaf PTE.

    ``frame`` holds the physical frame number while ``present`` is set;
    ``swap_slot`` holds the swap-area slot while the page is swapped out.
    """

    present: bool = False
    frame: Optional[int] = None
    swap_slot: Optional[int] = None
    accessed: bool = False
    dirty: bool = False
    inv: bool = False

    def map_frame(self, frame: int) -> None:
        """Mark the page resident in *frame*."""
        self.present = True
        self.frame = frame

    def unmap(self, swap_slot: Optional[int]) -> None:
        """Mark the page swapped out to *swap_slot*."""
        self.present = False
        self.frame = None
        self.swap_slot = swap_slot


@dataclass
class PageTableStats:
    """Counters over page-table operations."""

    populated_tables: int = 0


class _Table:
    """One directory level: a sparse array of 512 children."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[int, object] = {}


class PageTable:
    """Sparse 4-level radix page table for one process.

    Directory levels are allocated lazily on first mapping, matching how
    a real kernel populates its page tables, so the prefetcher's
    traversal naturally skips unpopulated regions.
    """

    def __init__(self) -> None:
        self._pgd = _Table()
        self.stats = PageTableStats()

    # -- kernel-style traversal helpers -----------------------------------

    def pgd_offset(self, va: VirtualAddress) -> Optional[_Table]:
        """PUD table referenced by the PGD entry for *va*, if populated."""
        return self._pgd.entries.get(va.pgd_index)  # type: ignore[return-value]

    def pud_offset(self, pud: _Table, va: VirtualAddress) -> Optional[_Table]:
        """PMD table referenced by the PUD entry for *va*, if populated."""
        return pud.entries.get(va.pud_index)  # type: ignore[return-value]

    def pmd_offset(self, pmd: _Table, va: VirtualAddress) -> Optional[_Table]:
        """Page table referenced by the PMD entry for *va*, if populated."""
        return pmd.entries.get(va.pmd_index)  # type: ignore[return-value]

    def pte_offset(self, pt: _Table, va: VirtualAddress) -> Optional[PageTableEntry]:
        """Leaf PTE for *va* within page table *pt*, if populated."""
        return pt.entries.get(va.pt_index)  # type: ignore[return-value]

    # -- public API ---------------------------------------------------------

    def walk(self, vaddr: int) -> Optional[PageTableEntry]:
        """Full 4-level walk; ``None`` if any level is unpopulated."""
        va = VirtualAddress(vaddr)
        pud = self.pgd_offset(va)
        if pud is None:
            return None
        pmd = self.pud_offset(pud, va)
        if pmd is None:
            return None
        pt = self.pmd_offset(pmd, va)
        if pt is None:
            return None
        return self.pte_offset(pt, va)

    def lookup_vpn(self, vpn: int) -> Optional[PageTableEntry]:
        """Walk by virtual page number instead of byte address."""
        return self.walk(vpn << 12)

    def ensure_pte(self, vaddr: int) -> PageTableEntry:
        """Walk, populating intermediate levels and the leaf as needed."""
        va = VirtualAddress(vaddr)
        pud = self._pgd.entries.get(va.pgd_index)
        if pud is None:
            pud = _Table()
            self._pgd.entries[va.pgd_index] = pud
            self.stats.populated_tables += 1
        pmd = pud.entries.get(va.pud_index)  # type: ignore[union-attr]
        if pmd is None:
            pmd = _Table()
            pud.entries[va.pud_index] = pmd  # type: ignore[union-attr]
            self.stats.populated_tables += 1
        pt = pmd.entries.get(va.pmd_index)  # type: ignore[union-attr]
        if pt is None:
            pt = _Table()
            pmd.entries[va.pmd_index] = pt  # type: ignore[union-attr]
            self.stats.populated_tables += 1
        pte = pt.entries.get(va.pt_index)  # type: ignore[union-attr]
        if pte is None:
            pte = PageTableEntry()
            pt.entries[va.pt_index] = pte  # type: ignore[union-attr]
        return pte  # type: ignore[return-value]

    def ensure_vpn(self, vpn: int) -> PageTableEntry:
        """:meth:`ensure_pte` keyed by virtual page number."""
        return self.ensure_pte(vpn << 12)

    def iter_ptes_from(
        self, vaddr: int, *, inclusive: bool = False
    ) -> Iterator[tuple[int, PageTableEntry]]:
        """Yield ``(vpn, pte)`` in ascending VA order, starting after *vaddr*.

        With ``inclusive=True`` the walk starts *at* the page holding
        *vaddr* instead of the one after it.

        This is the prefetcher's traversal (Figure 2 steps 6-7): it scans
        the leaf page table that holds the victim address and, when the
        table is exhausted, "reverts to traversing the next PMD entry" —
        and likewise climbs through PUD and PGD levels.  Unpopulated
        subtrees are skipped wholesale, so the walk touches only mapped
        regions.
        """
        va = VirtualAddress(vaddr)
        start = (va.pgd_index, va.pud_index, va.pmd_index, va.pt_index)
        for pgd_i in sorted(k for k in self._pgd.entries if k >= start[0]):
            pud = self._pgd.entries[pgd_i]
            pud_floor = start[1] if pgd_i == start[0] else 0
            for pud_i in sorted(k for k in pud.entries if k >= pud_floor):  # type: ignore[union-attr]
                pmd = pud.entries[pud_i]  # type: ignore[union-attr]
                pmd_floor = start[2] if (pgd_i, pud_i) == start[:2] else 0
                for pmd_i in sorted(k for k in pmd.entries if k >= pmd_floor):  # type: ignore[union-attr]
                    pt = pmd.entries[pmd_i]  # type: ignore[union-attr]
                    first = start[3] if inclusive else start[3] + 1
                    pt_floor = first if (pgd_i, pud_i, pmd_i) == start[:3] else 0
                    for pt_i in sorted(k for k in pt.entries if k >= pt_floor):  # type: ignore[union-attr]
                        vpn = (
                            (pgd_i << 27) | (pud_i << 18) | (pmd_i << 9) | pt_i
                        )
                        yield vpn, pt.entries[pt_i]  # type: ignore[union-attr, misc]

    def mapped_vpns(self) -> list[int]:
        """All VPNs with a leaf PTE, ascending."""
        return [vpn for vpn, __ in self.iter_ptes_from(0, inclusive=True)]

    def resident_vpns(self) -> list[int]:
        """VPNs whose PTE has the present bit set, ascending."""
        return [vpn for vpn in self.mapped_vpns() if self._present(vpn)]

    def _present(self, vpn: int) -> bool:
        pte = self.lookup_vpn(vpn)
        return pte is not None and pte.present
