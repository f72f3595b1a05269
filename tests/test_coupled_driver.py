"""End-to-end coupled runs: HS + CU over simulated MPI.

These are the integration tests of the whole reproduction: multi-row
compressor, sliding planes moved by rotor rotation, CU donor search and
interpolation, frame transformations — checked for physical sanity and
for exact equivalence with the monolithic baseline.
"""

import numpy as np
import pytest

from repro.coupler import CoupledDriver, CoupledRunConfig, MonolithicDriver
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config


def small_rig(rows=2, nt=12, steps_per_rev=64):
    return rig250_config(nr=3, nt=nt, nx=4, rows=rows,
                         steps_per_revolution=steps_per_rev)


def run_config(rows=2, **kw):
    base = dict(
        rig=small_rig(rows=rows),
        ranks_per_row=1,
        cus_per_interface=1,
        numerics=Numerics(inner_iters=4),
        inlet=FlowState(ux=0.5),
        p_out=1.0,
    )
    base.update(kw)
    return CoupledRunConfig(**base)


class TestTwoRowCoupled:
    def test_runs_and_reports(self, smpi_transport):
        driver = CoupledDriver(run_config())
        result = driver.run(3)
        assert result.nsteps == 3
        assert len(result.rows) == 2
        assert len(result.cus) == 1
        assert result.rows[0]["steps"] == 3
        stats = result.total_search_stats()
        assert stats.queries > 0
        assert stats.misses == 0

    def test_solution_stays_physical_through_coupling(self):
        driver = CoupledDriver(run_config())
        result = driver.run(6)
        _xs, p = result.pressure_profile()
        assert (p > 0.1).all() and (p < 10.0).all()

    def test_interface_continuity(self, smpi_transport):
        """The sliding-plane treatment must keep the solution continuous
        across the interface (Fig. 10's 'absence of wiggles')."""
        driver = CoupledDriver(run_config())
        result = driver.run(8)
        assert result.interface_wiggle() < 0.2

    def test_rotation_advances_relative_position(self):
        """With a rotor downstream the donor search must keep finding
        donors over a substantial fraction of a revolution."""
        rig = small_rig(rows=2, steps_per_rev=32)
        driver = CoupledDriver(run_config(rig=rig))
        result = driver.run(12)  # ~1/3 revolution
        assert result.total_search_stats().misses == 0

    def test_coupler_wait_measured(self):
        driver = CoupledDriver(run_config())
        result = driver.run(3)
        assert any("coupler_wait" in row["timers"] for row in result.rows)


class TestMultiRowMultiCU:
    @pytest.mark.parametrize("n_cu", [1, 2, 3])
    def test_cu_counts_agree(self, n_cu):
        """Different CU segmentations must give identical physics."""
        ref = CoupledDriver(run_config(cus_per_interface=1)).run(4)
        got = CoupledDriver(run_config(cus_per_interface=n_cu)).run(4)
        _xr, pr = ref.pressure_profile()
        _xg, pg = got.pressure_profile()
        np.testing.assert_allclose(pg, pr, rtol=1e-10)

    def test_three_rows_two_interfaces(self):
        driver = CoupledDriver(run_config(rows=3))
        result = driver.run(4)
        assert len(result.rows) == 3
        assert len(result.cus) == 2

    def test_multirank_rows_match_serial_rows(self, smpi_transport):
        """Distributed sessions (2 ranks each) must match 1-rank ones."""
        ref = CoupledDriver(run_config(ranks_per_row=1)).run(4)
        got = CoupledDriver(run_config(ranks_per_row=2)).run(4)
        _xr, pr = ref.pressure_profile()
        _xg, pg = got.pressure_profile()
        np.testing.assert_allclose(pg, pr, rtol=1e-9)

    def test_bruteforce_and_adt_identical_physics(self):
        ref = CoupledDriver(run_config(search="adt")).run(4)
        got = CoupledDriver(run_config(search="bruteforce")).run(4)
        _xr, pr = ref.pressure_profile()
        _xg, pg = got.pressure_profile()
        np.testing.assert_allclose(pg, pr, rtol=1e-10)
        # but ADT must do far fewer comparisons per query
        adt = ref.total_search_stats()
        bf = got.total_search_stats()
        assert adt.comparisons < bf.comparisons

    def test_compressor_builds_pressure(self):
        """A rotor doing work must raise the mean pressure downstream."""
        rig = small_rig(rows=2, steps_per_rev=48)
        driver = CoupledDriver(run_config(rig=rig, p_out=1.02,
                                          numerics=Numerics(inner_iters=5)))
        result = driver.run(24)
        assert result.pressure_ratio() > 1.005


class TestMonolithicBaseline:
    @pytest.mark.parametrize("incremental", [True, False],
                             ids=["incremental", "scratch"])
    @pytest.mark.parametrize("interp", ["bilinear", "biquadratic"])
    def test_monolithic_matches_coupled_physics(self, interp, incremental,
                                                smpi_transport):
        """The paper's baseline runs the identical physics — only the
        execution layout differs: both placements serve through the
        same engine, so every transfer option reaches both, bitwise."""
        cfg = run_config(interp=interp, incremental=incremental)
        coupled = CoupledDriver(cfg).run(4)
        mono = MonolithicDriver(cfg).run(4)
        _xc, pc = coupled.pressure_profile()
        _xm, pm = mono.pressure_profile()
        assert np.array_equal(pm, pc)

    def test_native_interp_matches_coupled(self):
        cfg = run_config(interp_native=True, transport="thread")
        _xc, pc = CoupledDriver(cfg).run(4).pressure_profile()
        _xm, pm = MonolithicDriver(cfg).run(4).pressure_profile()
        np.testing.assert_allclose(pm, pc, rtol=1e-10)

    @pytest.mark.parametrize("ranks", [1, 3])
    def test_monolithic_accounting_matches_coupled(self, ranks):
        """Search and conservation accounting are read from the inline
        servers' reports: measured, not zero, and equal to the CUs'."""
        cfg = run_config(ranks_per_row=ranks, partition_scheme="slabs")
        coupled = CoupledDriver(cfg).run(4)
        mono = MonolithicDriver(cfg).run(4)
        assert mono.cus == []
        stats = mono.total_search_stats()
        assert stats.queries == coupled.total_search_stats().queries > 0
        assert sum(mono.rank_search_comparisons) == (stats.comparisons
                                                     + stats.build_ops)
        err = mono.interface_flux_error()
        assert err > 0.0
        assert err == pytest.approx(coupled.interface_flux_error(),
                                    abs=1e-12)

    def test_monolithic_search_trapped_on_interface_ranks(self):
        """With multiple ranks per row, only interface-node owners do
        search work — the imbalance the paper identifies."""
        mono = MonolithicDriver(
            run_config(ranks_per_row=3, partition_scheme="slabs")).run(3)
        comps = np.array(mono.rank_search_comparisons)
        assert (comps == 0).any(), "some rank should have no interface work"
        assert comps.max() > 0
        assert mono.search_imbalance() > 1.5

    def test_monolithic_reports_rows(self):
        mono = MonolithicDriver(run_config(rows=3)).run(2)
        assert len(mono.rows) == 3
        assert mono.cus == []


class TestGPUAccounting:
    def test_gpu_gather_reduces_pcie_traffic(self):
        """The paper's GG optimization: ship only gathered interface
        values over PCIe instead of whole arrays."""
        def pcie_bytes(gg):
            driver = CoupledDriver(run_config(hs_device="gpu",
                                              gpu_gather=gg))
            result = driver.run(3)
            return result.traffic.total_nbytes("pcie")

        with_gg = pcie_bytes(True)
        without_gg = pcie_bytes(False)
        assert with_gg > 0
        assert with_gg < 0.3 * without_gg


class TestValidation:
    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            CoupledDriver(run_config(rig=small_rig(rows=1)))

    def test_negative_steps_rejected(self):
        driver = CoupledDriver(run_config())
        with pytest.raises(ValueError):
            driver.run(-1)

    def test_bad_ranks_per_row_length(self):
        cfg = run_config(ranks_per_row=[1, 1, 1])
        with pytest.raises(ValueError, match="ranks_per_row"):
            CoupledDriver(cfg)

    @pytest.mark.parametrize("feature", [
        {"schedule_seed": 7},
    ])
    def test_process_transport_rejects_thread_only_features(self, feature):
        from repro.smpi import TransportError

        driver = CoupledDriver(run_config(transport="process", **feature))
        with pytest.raises(TransportError, match="scheduler"):
            driver.run(1)

    def test_unknown_transport_rejected(self):
        from repro.smpi import TransportError

        driver = CoupledDriver(run_config(transport="telegraph"))
        with pytest.raises(TransportError, match="unknown smpi transport"):
            driver.run(1)


class TestConservation:
    def test_interface_mass_flow_continuity(self):
        """Axial mass flow must be (nearly) continuous across sliding
        planes once the startup transient settles — the conservation
        face of the paper's 'no wiggles' claim."""
        rig = small_rig(rows=3, steps_per_rev=64)
        driver = CoupledDriver(run_config(rig=rig,
                                          numerics=Numerics(inner_iters=5)))
        result = driver.run(20)
        assert result.interface_mass_mismatch() < 0.05

    def test_plane_mass_flows_reported(self):
        result = CoupledDriver(run_config()).run(2)
        first, last = result.rows[0], result.rows[-1]
        assert first["plane_mdot_in"] is None     # true inlet BC
        assert first["plane_mdot_out"] is not None
        assert last["plane_mdot_out"] is None     # true outlet BC
        assert last["plane_mdot_in"] is not None
