"""``mpix-omb``: the OSU-style micro-benchmark driver.

Examples::

    mpix-omb allreduce --system thetagpu --nodes 1 --stack hybrid
    mpix-omb latency --system voyager --backend hccl
    mpix-omb alltoall --system mri --nodes 2 --stack ccl --sizes 4:64K
    mpix-omb allreduce alltoallv --trace out.json   # one traced run
    mpix-omb allreduce --nodes 4 --ranks 64,256,1024  # scale sweep
    mpix-omb allreduce --topology 8x8 --nics 8        # multi-rail hier
    mpix-omb allreduce --vendors nvidia:2,amd:2       # mixed-vendor

Several collective benchmarks may be named at once: they run back to
back on one engine (one virtual timeline), which is what makes a
single ``--trace`` file cover the whole sweep.

``--ranks`` accepts a comma-separated list for rank-count scaling
sweeps; counts beyond the cluster's device count oversubscribe nodes
automatically.

``--topology NODESxGPUS`` (e.g. ``8x8``) is shorthand for ``--nodes N
--ranks-per-node G``; with ``--nics`` it builds multi-rail nodes, the
shape the striped hierarchy of a ``MPIX_TUNING_FILE`` table's ``hier``
rows is designed for (``--stats`` shows the ``route_hier``/``hier_*``
counters).

``--vendors VENDOR:N,...`` (e.g. ``nvidia:2,amd:2``) builds a
mixed-vendor cluster of single-vendor islands instead of a named
system; each rank runs its island's native CCL, so ``--backend`` does
not apply.  Calls the table's ``bridge`` rows hold take the island
bridge route (with no table, the MPI algorithms); ``--stats``
additionally prints the negotiated capability intersection across the
islands' backends.

Like real OMB without ``-c``, nothing here reads what it moves, so the
cluster is built storage-free (``payloads=False``): the same virtual
times, with every benchmark window O(1) in memory — a 128-rank alltoall
at 4 MiB per peer peaks under 100 MiB instead of needing 128 GiB.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import fastpath
from repro.config import apply_env
from repro.errors import ConfigError
from repro.hw.systems import make_mixed_system, make_system, system_names
from repro.hw.vendors import default_ccl_for
from repro.omb.collective import COLLECTIVE_BENCHMARKS, NO_PURE_CCL
from repro.omb.harness import OMBConfig
from repro.omb.pt2pt import osu_bibw, osu_bw, osu_latency
from repro.omb.stacks import STACK_NAMES, make_stack
from repro.sim.engine import Engine
from repro.sim.timeline import engine_chrome_trace
from repro.util.sizes import format_size, parse_size, power_of_two_sizes
from repro.util.tables import ascii_table, omb_header

PT2PT = {"latency": osu_latency, "bw": osu_bw, "bibw": osu_bibw}


def format_stats(engine: Engine) -> str:
    """Render the engine's two options and the
    :func:`repro.fastpath.snapshot` counters for ``--stats``.

    A new engine zeroes the counters, so the numbers cover exactly one
    benchmark run.
    """
    options = ", ".join(f"{name}={'on' if on else 'off'}"
                        for name, on in sorted(engine.options.items()))
    lines = [f"# Run options: {options}"]
    counters = fastpath.snapshot()["counters"]
    lines.append(ascii_table(
        ["Counter", "Value"],
        [[name, counters[name]] for name in sorted(counters)]))
    return "\n".join(lines)


def format_negotiation(cluster) -> str:
    """Render the capability intersection a mixed-vendor run negotiates
    across its islands' native backends (``--vendors`` + ``--stats``)."""
    from repro.errors import MPIXNegotiationError
    from repro.xccl.caps import negotiate
    from repro.xccl.registry import get_backend
    vendors = sorted({d.vendor for d in cluster.devices},
                     key=lambda v: v.value)
    try:
        desc = negotiate(get_backend(default_ccl_for(v)).capabilities
                         for v in vendors)
    except MPIXNegotiationError as exc:
        return f"# Negotiation failed: {exc}"
    return (f"# Negotiated intersection: {desc.summary()}\n"
            f"#   datatypes: {', '.join(sorted(desc.datatypes))}")


def _write_trace(engine: Engine, path: str, args,
                 benchmarks: Sequence[str]) -> None:
    doc = engine_chrome_trace(engine, meta={
        "tool": "mpix-omb",
        "benchmarks": list(benchmarks),
        "system": args.system,
        "nodes": args.nodes,
        "stack": args.stack,
        "sizes": args.sizes,
    })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    events = sum(1 for e in doc["traceEvents"] if e.get("ph") != "M")
    print(f"# Trace: {events} events -> {path} "
          f"(load in https://ui.perfetto.dev, or mpix-trace summarize)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(prog="mpix-omb", description=__doc__)
    parser.add_argument("benchmarks", nargs="+", metavar="benchmark",
                        help="one or more of: "
                        + ", ".join(sorted(COLLECTIVE_BENCHMARKS)
                                    + sorted(PT2PT)))
    parser.add_argument("--system", default="thetagpu",
                        choices=system_names())
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--ranks", default=None,
                        help="rank count, or a comma-separated list for a "
                        "scale sweep (collectives only); counts beyond the "
                        "device count oversubscribe nodes. default: one "
                        "per device (2 for pt2pt)")
    parser.add_argument("--ranks-per-node", type=int, default=None)
    parser.add_argument("--topology", default=None, metavar="NODESxGPUS",
                        help="cluster shape shorthand, e.g. 8x8 = "
                        "--nodes 8 --ranks-per-node 8")
    parser.add_argument("--nics", type=int, default=None,
                        help="NIC rails per node (default: the system's "
                        "single-rail calibration)")
    parser.add_argument("--vendors", default=None, metavar="SPEC",
                        help="mixed-vendor cluster spec, e.g. nvidia:2,amd:2 "
                        "(single-vendor islands, 2 devices per node); each "
                        "rank uses its island's native CCL")
    parser.add_argument("--backend", default=None,
                        help="CCL backend (default: MPIX_BACKEND, else the "
                        "system's native)")
    parser.add_argument("--stack", default="hybrid", choices=STACK_NAMES,
                        help="communication stack (collectives only)")
    parser.add_argument("--sizes", default="4:4M",
                        help="MIN:MAX sweep, e.g. 4:4K")
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--stats", action="store_true",
                        help="print the run's options and the "
                        "per-stage dispatch counters after the sweep")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="run the sweep traced and write a Chrome/"
                        "Perfetto JSON timeline to PATH")

    args = parser.parse_args(argv)
    if args.vendors is not None:
        if args.system != parser.get_default("system") \
                or args.nodes != parser.get_default("nodes") \
                or args.topology is not None:
            parser.error("--vendors conflicts with --system/--nodes/--topology")
        if args.backend is not None:
            parser.error("--vendors runs each island's native CCL; "
                         "--backend cannot span vendors")
        if any(b in PT2PT for b in args.benchmarks):
            parser.error("--vendors supports collective benchmarks only")
    if args.topology is not None:
        parts = args.topology.lower().replace("×", "x").split("x")
        try:
            t_nodes, t_gpus = (int(p) for p in parts)
            if t_nodes <= 0 or t_gpus <= 0:
                raise ValueError
        except ValueError:
            parser.error(f"--topology must be NODESxGPUS (e.g. 8x8), "
                         f"got {args.topology!r}")
        if args.nodes != parser.get_default("nodes") \
                or args.ranks_per_node is not None:
            parser.error("--topology conflicts with --nodes/--ranks-per-node")
        args.nodes, args.ranks_per_node = t_nodes, t_gpus
    if args.nics is not None and args.nics < 1:
        parser.error("--nics must be >= 1")
    known = set(COLLECTIVE_BENCHMARKS) | set(PT2PT)
    unknown = [b for b in args.benchmarks if b not in known]
    if unknown:
        parser.error(f"unknown benchmark(s): {', '.join(unknown)}")
    if any(b in PT2PT for b in args.benchmarks) and len(args.benchmarks) > 1:
        parser.error("pt2pt benchmarks run one at a time")
    lacking = [b for b in args.benchmarks if b in NO_PURE_CCL]
    if args.stack == "ccl" and lacking:
        parser.error(f"{', '.join(lacking)}: no pure-CCL variant (the CCL "
                     f"APIs lack the collective); run with --stack "
                     + " / ".join(s for s in STACK_NAMES if s != "ccl"))

    try:
        rank_counts = ([int(p) for p in str(args.ranks).split(",")]
                       if args.ranks is not None else [None])
    except ValueError:
        parser.error(f"--ranks must be an integer or a comma-separated "
                     f"list of integers, got {args.ranks!r}")
    if any(n is not None and n <= 0 for n in rank_counts):
        parser.error("--ranks counts must be positive")
    if len(rank_counts) > 1:
        if args.benchmarks[0] in PT2PT:
            parser.error("pt2pt benchmarks take a single --ranks count")
        if args.trace:
            parser.error("--trace covers one engine run; use a single "
                         "--ranks count")
        if args.ranks_per_node is not None:
            parser.error("--ranks-per-node conflicts with a --ranks sweep "
                         "(placement is derived per count)")

    lo, hi = (parse_size(p) for p in args.sizes.split(":"))
    config = OMBConfig(sizes=tuple(power_of_two_sizes(lo, hi)),
                       warmup=args.warmup, iterations=args.iterations)
    # MPIX_BACKEND and MPIX_TUNING_FILE, as runtime.run reads them
    backend, _, table = apply_env(args.backend, None, None)
    if args.vendors is not None:
        try:
            cluster = make_mixed_system(args.vendors, nics=args.nics,
                                        payloads=False)
        except ConfigError as exc:
            parser.error(str(exc))
        args.system = f"mixed:{args.vendors}"
        backend = None            # per-rank: each island's native CCL
        backend_label = "native"
    else:
        cluster = make_system(args.system, args.nodes, nics=args.nics,
                              payloads=False)
        backend = backend or default_ccl_for(cluster.devices[0].vendor)
        backend_label = backend

    if args.benchmarks[0] in PT2PT:
        name = args.benchmarks[0]
        bench = PT2PT[name]
        nranks = rank_counts[0] or 2
        engine = Engine(cluster, nranks=nranks,
                        ranks_per_node=args.ranks_per_node,
                        trace=True if args.trace else None)
        data = engine.run(lambda ctx: bench(ctx, backend, config))[0]
        unit = "Latency (us)" if name == "latency" else "Bandwidth (MB/s)"
        print(omb_header(f"osu_{name}", args.system, backend, nranks))
        print(ascii_table(["Size", unit],
                          [[format_size(s), v] for s, v in sorted(data.items())]))
        if args.stats:
            print(format_stats(engine))
        if args.trace:
            _write_trace(engine, args.trace, args, args.benchmarks)
        return 0

    def body(ctx):
        # one stack, one virtual timeline: back-to-back sweeps share
        # the engine run so a single trace file covers them all
        stack = make_stack(ctx, args.stack, backend, table)
        return [COLLECTIVE_BENCHMARKS[name](ctx, stack, config)
                for name in args.benchmarks]

    for count in rank_counts:
        nranks = count or (cluster.device_count
                           if args.ranks_per_node is None
                           else cluster.node_count * args.ranks_per_node)
        rpn = args.ranks_per_node
        if rpn is None and nranks > cluster.device_count:
            # a scale sweep beyond the physical device count: spread
            # the extra ranks evenly by oversubscribing every node
            rpn = -(-nranks // cluster.node_count)
        engine = Engine(cluster, nranks=nranks, ranks_per_node=rpn,
                        trace=True if args.trace else None)
        per_bench = engine.run(body)[0]
        for name, stats in zip(args.benchmarks, per_bench):
            extra = f"Stack: {args.stack}" + (
                f" | {rpn} ranks/node" if rpn else "")
            print(omb_header(f"osu_{name}", args.system, backend_label,
                             nranks, extra=extra))
            print(ascii_table(
                ["Size", "Avg Latency (us)", "Min (us)", "Max (us)"],
                [[format_size(s), st.avg_us, st.min_us, st.max_us]
                 for s, st in sorted(stats.items())]))
        if args.stats:
            print(format_stats(engine))
            if args.vendors is not None:
                print(format_negotiation(cluster))
        if args.trace:
            _write_trace(engine, args.trace, args, args.benchmarks)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
