"""Environment-variable configuration (the ``MPIX_*`` namespace).

The paper closes §4.4 on exactly this knob: "our xCCL designs ...
offer easy adaptation by simply adjusting the NCCL backend through the
corresponding library path setting."  Real deployments flip backends
and modes through the environment, not code edits — so the runtime
honors:

=====================  =================================================
variable                meaning
=====================  =================================================
``MPIX_BACKEND``        CCL backend name (``nccl``, ``rccl``, ``hccl``,
                        ``msccl``, ``oneccl``, ``nccl-2.11`` ...)
``MPIX_MODE``           ``hybrid`` / ``pure_xccl`` / ``pure_mpi``
``MPIX_TUNING_FILE``    path to a ``mpix-tune`` JSON table
``MPIX_EAGER_INTRA``    eager threshold override, bytes (e.g. ``16K``)
``MPIX_EAGER_INTER``    eager threshold override, bytes
``MPIX_TRACE``          default of the ``trace=`` run option
``MPIX_ONLINE_TUNE``    default of ``online_tune=``
=====================  =================================================

The last two are the options :class:`repro.sim.engine.Engine`
documents (``run_spmd`` / ``runtime.run`` forward them): off unless the
variable is set to something truthy, resolved once when the engine is
built.  Routes are not options: the hierarchy and the mixed-vendor
bridge are ``hier`` / ``bridge`` rows of a ``MPIX_TUNING_FILE`` table.

Explicit arguments always win over the environment, and this module is
the only one that reads it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ConfigError
from repro.util.sizes import parse_size

_VALID_MODES = ("hybrid", "pure_xccl", "pure_mpi")
_FALSY = {"0", "false", "off", "no", ""}


@dataclass(frozen=True)
class EnvDefaults:
    """Runtime defaults resolved from the environment."""

    backend: Optional[str] = None
    mode: Optional[str] = None
    tuning_file: Optional[str] = None
    eager_intra: Optional[int] = None
    eager_inter: Optional[int] = None
    trace: bool = False
    online_tune: bool = False


def from_env(environ: Optional[Mapping[str, str]] = None) -> EnvDefaults:
    """Parse the ``MPIX_*`` variables (validating values)."""
    env = os.environ if environ is None else environ
    backend = env.get("MPIX_BACKEND") or None
    mode = env.get("MPIX_MODE") or None
    if mode is not None:
        mode = mode.strip().lower()
        if mode not in _VALID_MODES:
            raise ConfigError(
                f"MPIX_MODE={mode!r}; expected one of {_VALID_MODES}")
    tuning_file = env.get("MPIX_TUNING_FILE") or None
    if tuning_file is not None and not os.path.exists(tuning_file):
        raise ConfigError(f"MPIX_TUNING_FILE={tuning_file!r} does not exist")

    def _size(name: str) -> Optional[int]:
        raw = env.get(name)
        return parse_size(raw) if raw else None

    def _flag(name: str) -> bool:
        return env.get(name, "0").strip().lower() not in _FALSY

    return EnvDefaults(backend=backend, mode=mode, tuning_file=tuning_file,
                       eager_intra=_size("MPIX_EAGER_INTRA"),
                       eager_inter=_size("MPIX_EAGER_INTER"),
                       trace=_flag("MPIX_TRACE"),
                       online_tune=_flag("MPIX_ONLINE_TUNE"))


def apply_env(backend, mode, table, mpi_config,
              environ: Optional[Mapping[str, str]] = None):
    """Fill unset runtime arguments from the environment.

    Returns (backend, mode, table, mpi_config) with env defaults
    applied where the caller passed None.
    """
    defaults = from_env(environ)
    if backend is None:
        backend = defaults.backend
    if mode is None:
        mode = defaults.mode or "hybrid"
    if table is None and defaults.tuning_file:
        from repro.core.tuning_table import TuningTable
        with open(defaults.tuning_file, encoding="utf-8") as fh:
            table = TuningTable.from_json(fh.read())
    if mpi_config is not None and (defaults.eager_intra or defaults.eager_inter):
        overrides = {}
        if defaults.eager_intra:
            overrides["eager_threshold_intra"] = defaults.eager_intra
        if defaults.eager_inter:
            overrides["eager_threshold_inter"] = defaults.eager_inter
        mpi_config = mpi_config.with_(**overrides)
    return backend, mode, table, mpi_config
