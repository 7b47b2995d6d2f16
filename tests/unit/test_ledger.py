"""Unit tests for the time-attribution ledger."""

import pytest

from repro.common.errors import SimulationError
from repro.telemetry import LEDGER_CATEGORIES, TimeLedger
from repro.telemetry.ledger import IDLE, MEMORY_STALL, MIGRATION, RUN, SPIN_WAIT


class TestCharge:
    def test_accumulates_per_cell(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "run", 100)
        ledger.charge(0, 1, "run", 50)
        ledger.charge(0, 2, "run", 10)
        assert ledger.cells_by_process()[1][RUN] == 150
        assert ledger.cells_by_process()[2][RUN] == 10
        assert ledger.total_ns() == 160

    def test_zero_charge_is_dropped(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "idle", 0)
        assert ledger.total_ns() == 0
        assert ledger.cells_by_core() == {}

    def test_negative_charge_raises(self):
        with pytest.raises(SimulationError, match="negative"):
            TimeLedger().charge(0, 1, "run", -1)

    def test_unknown_category_raises(self):
        with pytest.raises(SimulationError, match="unknown ledger category"):
            TimeLedger().charge(0, 1, "sleeping", 5)

    def test_none_pid_books_unattributed(self):
        ledger = TimeLedger()
        ledger.charge(0, None, "idle", 40)
        assert ledger.cells_by_process()[None][IDLE] == 40


class TestRows:
    def test_row_is_live_and_indexed_by_category(self):
        ledger = TimeLedger()
        row = ledger.row(1, 7)
        row[MEMORY_STALL] += 30
        assert ledger.row(1, 7) is row
        assert ledger.cells_by_process()[7][MEMORY_STALL] == 30
        assert ledger.core_total_ns(1) == 30

    def test_views_sum_rows(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "run", 10)
        ledger.charge(1, 1, "run", 5)
        ledger.charge(1, None, "migration", 7)
        assert ledger.cells_by_process()[1][RUN] == 15
        assert ledger.cells_by_core()[1][MIGRATION] == 7
        assert ledger.cells()[RUN] == 15
        assert 99 not in ledger.cells_by_process()


class TestBreakdowns:
    def _sample(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "run", 60)
        ledger.charge(0, None, "idle", 40)
        ledger.charge(1, 2, "spin_wait", 70)
        ledger.charge(1, None, "tlb_shootdown", 30)
        return ledger

    def test_by_category_covers_all_categories(self):
        totals = self._sample().by_category()
        assert set(totals) == set(LEDGER_CATEGORIES)
        assert totals["run"] == 60 and totals["spin_wait"] == 70
        assert totals["dma_wait"] == 0

    def test_by_core(self):
        per_core = self._sample().cells_by_core()
        assert sorted(per_core) == [0, 1]
        assert per_core[0][RUN] == 60 and per_core[0][IDLE] == 40
        assert per_core[1][SPIN_WAIT] == 70

    def test_core_total(self):
        ledger = self._sample()
        assert ledger.core_total_ns(0) == 100
        assert ledger.core_total_ns(1) == 100
        assert ledger.core_total_ns(7) == 0


class TestAudit:
    def test_conservation_holds(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "run", 100)
        ledger.charge(1, None, "idle", 100)
        ledger.audit(100, 2)  # no raise

    def test_leak_is_pinned_to_the_core(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "run", 100)
        ledger.charge(1, None, "idle", 90)
        with pytest.raises(SimulationError, match="core 1"):
            ledger.audit(100, 2)

    def test_invented_time_caught(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "run", 110)
        with pytest.raises(SimulationError, match=r"\+10 ns"):
            ledger.audit(100, 1)

    def test_error_carries_breakdown(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "spin_wait", 30)
        with pytest.raises(SimulationError, match="spin_wait=30"):
            ledger.audit(100, 1)


class TestRender:
    def test_render_mentions_every_category_and_conserves(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "run", 60)
        ledger.charge(0, None, "dma_wait", 40)
        text = ledger.render(100, 1)
        for category in LEDGER_CATEGORIES:
            assert category in text
        assert "100.0%" in text

    def test_render_smp_has_core_columns(self):
        ledger = TimeLedger()
        ledger.charge(0, 1, "run", 10)
        ledger.charge(1, None, "idle", 10)
        text = ledger.render(10, 2)
        assert "core0" in text and "core1" in text
