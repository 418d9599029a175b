"""MPIX_* environment configuration."""

import pytest

from repro.config import EnvDefaults, apply_env, from_env
from repro.core import DispatchMode, run
from repro.errors import ConfigError
from repro.mpi import SUM
from repro.mpi.config import mvapich_gpu
from tests import frozen_reference


class TestFromEnv:
    def test_empty(self):
        assert from_env({}) == EnvDefaults()

    def test_backend_and_mode(self):
        d = from_env({"MPIX_BACKEND": "msccl", "MPIX_MODE": "pure_xccl"})
        assert d.backend == "msccl"
        assert d.mode == "pure_xccl"

    def test_mode_case_insensitive(self):
        assert from_env({"MPIX_MODE": "Pure_MPI"}).mode == "pure_mpi"

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            from_env({"MPIX_MODE": "turbo"})

    def test_eager_sizes_parsed(self):
        d = from_env({"MPIX_EAGER_INTRA": "16K", "MPIX_EAGER_INTER": "32K"})
        assert d.eager_intra == 16384
        assert d.eager_inter == 32768

    def test_missing_tuning_file(self):
        with pytest.raises(ConfigError):
            from_env({"MPIX_TUNING_FILE": "/nonexistent/table.json"})

    def test_empty_values_ignored(self):
        assert from_env({"MPIX_BACKEND": "", "MPIX_MODE": ""}) == EnvDefaults()


class TestApplyEnv:
    def test_explicit_args_win(self):
        backend, mode, table, cfg = apply_env(
            "nccl", "pure_mpi", None, mvapich_gpu(),
            environ={"MPIX_BACKEND": "msccl", "MPIX_MODE": "hybrid"})
        assert backend == "nccl"
        assert mode == "pure_mpi"

    def test_env_fills_gaps(self):
        backend, mode, _t, _c = apply_env(
            None, None, None, mvapich_gpu(),
            environ={"MPIX_BACKEND": "msccl", "MPIX_MODE": "pure_xccl"})
        assert backend == "msccl"
        assert mode == "pure_xccl"

    def test_default_mode_hybrid(self):
        _b, mode, _t, _c = apply_env(None, None, None, mvapich_gpu(),
                                     environ={})
        assert mode == "hybrid"

    def test_eager_overrides_config(self):
        _b, _m, _t, cfg = apply_env(None, None, None, mvapich_gpu(),
                                    environ={"MPIX_EAGER_INTRA": "64K"})
        assert cfg.eager_threshold_intra == 65536

    def test_tuning_file_loaded(self, tmp_path):
        from repro.core.tune_cli import main
        path = tmp_path / "table.json"
        main(["--system", "thetagpu", "-o", str(path)])
        _b, _m, table, _c = apply_env(None, None, None, mvapich_gpu(),
                                      environ={"MPIX_TUNING_FILE": str(path)})
        assert table is not None
        assert table.backend == "nccl"


class TestRunHonorsEnv:
    def test_backend_from_env(self, monkeypatch):
        monkeypatch.setenv("MPIX_BACKEND", "msccl")
        out = run(lambda mpx: mpx.layer.backend_name,
                  system="thetagpu", nranks=2)
        assert out == ["msccl", "msccl"]

    def test_mode_from_env(self, monkeypatch):
        monkeypatch.setenv("MPIX_MODE", "pure_mpi")
        out = run(lambda mpx: mpx.COMM_WORLD.coll.mode,
                  system="thetagpu", nranks=2)
        assert out == [DispatchMode.PURE_MPI] * 2

    def test_env_swap_changes_routing(self, monkeypatch):
        """The paper's 'adjust the backend through the library path
        setting' story: same program, different env, different CCL."""

        def body(mpx):
            big = mpx.device_array(1 << 20, fill=1.0)
            out = mpx.device_array(1 << 20)
            mpx.COMM_WORLD.Allreduce(big, out, SUM)
            # version distinguishes the pinned build (the name stays
            # "nccl" — version-pinned backends reuse the same symbols)
            return (mpx.layer.backend.version, float(out.array[0]))

        monkeypatch.setenv("MPIX_BACKEND", "nccl-2.11")
        a = run(body, system="thetagpu", nranks=4)[0]
        monkeypatch.setenv("MPIX_BACKEND", "nccl")
        b = run(body, system="thetagpu", nranks=4)[0]
        assert a == ("2.11.4", 4.0)
        assert b == ("2.18.3", 4.0)


class TestOptionsBelongToTheRun:
    """The two run options (``trace``, ``online_tune``) are ``Engine``
    arguments whose ``MPIX_*`` defaults are read once per engine: they
    cannot leak into the next engine or go stale inside one, and
    nothing else reads the environment."""

    OPTIONS = frozen_reference.OPTIONS

    @staticmethod
    def _big_allreduce(mpx):
        n = (2 << 20) // 4
        out = mpx.device_array(n)
        mpx.COMM_WORLD.Allreduce(mpx.device_array(n, fill=1.0), out, SUM)
        return (float(out.array[0]), len(mpx.ctx.trace),
                mpx.ctx.engine.online_tuner is not None)

    def _run_two_nodes(self, **options):
        """``(trace events, ranks tuned)`` of one run."""
        from repro.hw.systems import make_system
        out = run(self._big_allreduce, system=make_system("thetagpu", 2),
                  nranks=8, ranks_per_node=4, **options)
        assert all(value == 8.0 for value, _events, _tuned in out)
        return (sum(events for _value, events, _tuned in out),
                sum(tuned for _value, _events, tuned in out))

    def test_options_do_not_outlive_their_engine(self, monkeypatch):
        """(a) everything on, then an engine with no arguments: no
        trace, no tuner — there is nothing to restore."""
        from repro.hw.systems import make_system
        from repro.sim.engine import Engine
        for name in self.OPTIONS:
            monkeypatch.delenv(f"MPIX_{name.upper()}", raising=False)
        events, tuned = self._run_two_nodes(
            **dict.fromkeys(self.OPTIONS, True))
        assert events > 0 and tuned == 8
        assert self._run_two_nodes() == (0, 0)
        plain = Engine(make_system("thetagpu", 2), nranks=8)
        assert plain.options == dict.fromkeys(self.OPTIONS, False)
        assert plain.online_tuner is None

    def test_env_default_is_read_per_engine(self, monkeypatch):
        """(b) a variable set after ``import repro`` is honored by the
        next run (no import-time latch); an explicit argument wins."""
        monkeypatch.delenv("MPIX_ONLINE_TUNE", raising=False)
        monkeypatch.setenv("MPIX_TRACE", "1")
        assert self._run_two_nodes()[0] > 0
        assert self._run_two_nodes(trace=False)[0] == 0
        monkeypatch.delenv("MPIX_TRACE")
        assert self._run_two_nodes()[0] == 0
        assert self._run_two_nodes(trace=True)[0] > 0

    def test_config_is_the_only_reader_of_the_environment(self):
        """(c) structural pin: ``os.environ`` / ``os.getenv`` occur in
        ``repro/config.py`` only, and ``repro.fastpath`` holds counters
        — no gate registry, nothing to configure."""
        import pathlib

        import repro
        from repro import fastpath
        root = pathlib.Path(repro.__file__).parent
        readers = sorted(
            str(path.relative_to(root)) for path in root.rglob("*.py")
            if any(token in path.read_text(encoding="utf-8")
                   for token in ("os.environ", "getenv")))
        assert readers == ["config.py"]
        for retired in ("configure", "gates", "gate_enabled", "GATE_ENV"):
            assert not hasattr(fastpath, retired)

    @pytest.mark.parametrize("name", ["elastic", "coop_sched", "plan_cache",
                                      "tracing"])
    def test_unknown_option_is_a_type_error(self, name):
        """(d) a retired or unknown name is an unexpected keyword."""
        from repro.hw.systems import make_system
        from repro.sim.engine import Engine
        with pytest.raises(TypeError):
            Engine(make_system("thetagpu", 1), nranks=2, **{name: True})
