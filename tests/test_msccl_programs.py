"""MSCCL custom-algorithm programs."""

from repro.xccl.msccl_programs import (
    DEFAULT_PROGRAMS,
    MSCCLProgram,
    ProgramRegistry,
    default_registry,
)


class TestProgram:
    def test_activation_window(self):
        pr = MSCCLProgram("p", "allreduce", 256, 1024, 1.4)
        assert pr.active(256, 8)
        assert pr.active(1024, 8)
        assert not pr.active(255, 8)
        assert not pr.active(1025, 8)

    def test_rank_cap(self):
        pr = MSCCLProgram("p", "allreduce", 1, 1024, 1.4, max_ranks=8)
        assert pr.active(512, 8)
        assert not pr.active(512, 9)

    def test_speedup_peaks_in_middle(self):
        pr = MSCCLProgram("p", "allreduce", 256, 256 * 1024, 1.35)
        mid = pr.speedup(8192)     # near log-center
        edge = pr.speedup(256)
        assert mid > edge > 1.0

    def test_speedup_outside_window(self):
        pr = MSCCLProgram("p", "allreduce", 256, 1024, 1.4)
        assert pr.speedup(64) == 1.0


class TestRegistry:
    def test_default_programs_loaded(self):
        reg = ProgramRegistry()
        assert len(reg) == len(DEFAULT_PROGRAMS)

    def test_factor_inside_window(self):
        reg = ProgramRegistry()
        assert reg.factor("allreduce", 8192, 8) > 1.0

    def test_factor_outside_window(self):
        reg = ProgramRegistry()
        assert reg.factor("allreduce", 8 << 20, 8) == 1.0

    def test_factor_unknown_collective(self):
        assert ProgramRegistry().factor("barrier", 8192, 8) == 1.0

    def test_best_picks_fastest(self):
        reg = ProgramRegistry(programs=(
            MSCCLProgram("slow", "allreduce", 1, 1 << 20, 1.1),
            MSCCLProgram("fast", "allreduce", 1, 1 << 20, 1.9)))
        assert reg.best("allreduce", 1024, 8).name == "fast"

    def test_default_registry_singleton(self):
        assert default_registry() is default_registry()

    def test_msccl_window_matches_paper(self):
        """§4.3: MSCCL outperforms NCCL for 256 B - 256 KB."""
        reg = ProgramRegistry()
        assert reg.factor("allreduce", 255, 8) == 1.0
        assert reg.factor("allreduce", 300, 8) > 1.0
        assert reg.factor("allreduce", 256 * 1024, 8) > 1.0
