"""Table 1: systems hardware information (single node).

Emits the table from the presets and cross-checks that the constructed
clusters actually match it (device counts, memory capacities, CPU core
counts) — the reproduction's "hardware" is the presets, so this
experiment is a consistency audit and runs no simulation (its method
is "model").
"""

from __future__ import annotations

from repro.experiments.registry import AnchorCheck, Experiment, register
from repro.hw.systems import TABLE1, make_system
from repro.util.records import ResultRecord, ResultSet
from repro.util.tables import ascii_table

GB = 1024 ** 3


def run(scale: str = "paper") -> ResultSet:
    """Collect per-system facts from the built clusters."""
    results = ResultSet()
    for name in ("thetagpu", "mri", "voyager"):
        cluster = make_system(name, 1)
        node = cluster.nodes[0]
        dev = node.devices[0]
        facts = {
            "devices_per_node": node.device_count,
            "device_memory_gb": dev.hbm_bytes / GB,
            "sockets": node.cpu.sockets,
            "cores_per_socket": node.cpu.cores_per_socket,
            "host_memory_gb": node.cpu.memory_bytes / GB,
        }
        for key, value in facts.items():
            results.add(ResultRecord("table1", series=name, x=0.0,
                                     value=float(value), unit=key,
                                     meta=dict(TABLE1[name])))
    return results


def render(results: ResultSet) -> str:
    """ASCII rendition of Table 1."""
    systems = results.series_names()
    fields = ["devices_per_node", "device_memory_gb", "sockets",
              "cores_per_socket", "host_memory_gb"]
    rows = []
    for f in fields:
        row = [f]
        for s in systems:
            row.append(next(r.value for r in results
                            if r.series == s and r.unit == f))
        rows.append(row)
    return ascii_table(["Component"] + systems, rows,
                       title="Table 1: systems hardware (single node)")


def _fact(system: str, unit: str):
    def get(results: ResultSet) -> float:
        return next(r.value for r in results
                    if r.series == system and r.unit == unit)
    return get


EXPERIMENT = register(Experiment(
    id="table1",
    title="Systems hardware information (single node)",
    paper_ref="Table 1",
    run=run,
    method="model",
    checks=(
        AnchorCheck("ThetaGPU accelerators/node", 8,
                    _fact("thetagpu", "devices_per_node"), 0.0),
        AnchorCheck("ThetaGPU device memory (GB)", 40,
                    _fact("thetagpu", "device_memory_gb"), 0.0),
        AnchorCheck("MRI accelerators/node", 2,
                    _fact("mri", "devices_per_node"), 0.0),
        AnchorCheck("MRI device memory (GB)", 32,
                    _fact("mri", "device_memory_gb"), 0.0),
        AnchorCheck("Voyager accelerators/node", 8,
                    _fact("voyager", "devices_per_node"), 0.0),
        AnchorCheck("Voyager cores/socket", 24,
                    _fact("voyager", "cores_per_socket"), 0.0),
        AnchorCheck("ThetaGPU host memory (GB)", 1024,
                    _fact("thetagpu", "host_memory_gb"), 0.0),
    ),
))
