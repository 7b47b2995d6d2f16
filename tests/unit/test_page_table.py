"""Unit tests for the 4-level page table."""

import pytest

from repro.vm.address import VirtualAddress
from repro.vm.page_table import PageTable, PageTableEntry


@pytest.fixture
def table():
    return PageTable()


class TestWalk:
    def test_walk_unmapped_is_none(self, table):
        assert table.walk(0x1000) is None

    def test_ensure_then_walk(self, table):
        pte = table.ensure_pte(0x1000)
        assert table.walk(0x1000) is pte

    def test_ensure_is_idempotent(self, table):
        a = table.ensure_pte(0x1000)
        b = table.ensure_pte(0x1000)
        assert a is b

    def test_distinct_pages_distinct_ptes(self, table):
        a = table.ensure_pte(0x1000)
        b = table.ensure_pte(0x2000)
        assert a is not b

    def test_lookup_vpn(self, table):
        pte = table.ensure_vpn(5)
        assert table.lookup_vpn(5) is pte

    def test_populated_tables_counted(self, table):
        table.ensure_pte(0x1000)
        # First mapping populates PUD + PMD + PT under one PGD entry.
        assert table.stats.populated_tables == 3
        table.ensure_pte(0x2000)  # same page table
        assert table.stats.populated_tables == 3

    def test_offsets_within_page_share_pte(self, table):
        a = table.ensure_pte(0x1000)
        assert table.walk(0x1FFF) is a


class TestPTE:
    def test_map_frame(self):
        pte = PageTableEntry()
        pte.map_frame(9)
        assert pte.present and pte.frame == 9

    def test_unmap(self):
        pte = PageTableEntry()
        pte.map_frame(9)
        pte.unmap(swap_slot=4)
        assert not pte.present
        assert pte.frame is None
        assert pte.swap_slot == 4

    def test_inv_bit_default_clear(self):
        assert PageTableEntry().inv is False


class TestIteration:
    def test_iter_ptes_from_skips_victim(self, table):
        for vpn in (10, 11, 12):
            table.ensure_vpn(vpn)
        vpns = [vpn for vpn, _ in table.iter_ptes_from(10 << 12)]
        assert vpns == [11, 12]

    def test_iter_ptes_inclusive(self, table):
        for vpn in (10, 11):
            table.ensure_vpn(vpn)
        vpns = [vpn for vpn, _ in table.iter_ptes_from(10 << 12, inclusive=True)]
        assert vpns == [10, 11]

    def test_iter_crosses_page_table_boundary(self, table):
        # VPN 511 and 512 live in different leaf page tables (different
        # PMD entries) — the Figure 2 step-7 case.
        table.ensure_vpn(511)
        table.ensure_vpn(512)
        vpns = [vpn for vpn, _ in table.iter_ptes_from(511 << 12)]
        assert vpns == [512]

    def test_iter_crosses_pud_boundary(self, table):
        last_in_pud = (1 << 18) - 1  # 512*512 - 1
        table.ensure_vpn(last_in_pud)
        table.ensure_vpn(last_in_pud + 1)
        vpns = [vpn for vpn, _ in table.iter_ptes_from(last_in_pud << 12)]
        assert vpns == [last_in_pud + 1]

    def test_iter_skips_unpopulated_regions(self, table):
        table.ensure_vpn(10)
        table.ensure_vpn(1_000_000)
        vpns = [vpn for vpn, _ in table.iter_ptes_from(10 << 12)]
        assert vpns == [1_000_000]

    def test_mapped_vpns_sorted(self, table):
        for vpn in (30, 10, 20):
            table.ensure_vpn(vpn)
        assert table.mapped_vpns() == [10, 20, 30]

    def test_mapped_vpns_includes_zero(self, table):
        table.ensure_vpn(0)
        table.ensure_vpn(3)
        assert table.mapped_vpns() == [0, 3]

    def test_resident_vpns_filters_present(self, table):
        table.ensure_vpn(1).map_frame(0)
        table.ensure_vpn(2)  # not present
        assert table.resident_vpns() == [1]


class TestKernelStyleOffsets:
    def test_manual_four_level_walk(self, table):
        pte = table.ensure_pte(0x1234_5000)
        va = VirtualAddress(0x1234_5000)
        pud = table.pgd_offset(va)
        assert pud is not None
        pmd = table.pud_offset(pud, va)
        assert pmd is not None
        pt = table.pmd_offset(pmd, va)
        assert pt is not None
        assert table.pte_offset(pt, va) is pte

    def test_pgd_offset_unmapped(self, table):
        assert table.pgd_offset(VirtualAddress(0x9999_0000)) is None
