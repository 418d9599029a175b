"""``mpix-tune``: the offline tuning pass as a shell tool (§3.4).

"In this work, we tune the tuning tables offline" — a site runs this
once per (system, scale, backend) and ships the JSON with its MPI
install; the runtime loads it instead of re-tuning.

Examples::

    mpix-tune --system thetagpu --nodes 4 --ranks 32 -o theta32.json
    mpix-tune --system voyager --backend hccl --show
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.tuning_table import site_table
from repro.hw.systems import make_system, system_names
from repro.mpi.config import mvapich_gpu, openmpi_ucx


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(prog="mpix-tune", description=__doc__)
    parser.add_argument("--system", default="thetagpu", choices=system_names())
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--ranks", type=int, default=None,
                        help="default: one per device")
    parser.add_argument("--backend", default=None,
                        help="CCL backend (default: the system's native)")
    parser.add_argument("--mpi", default="mvapich",
                        choices=("mvapich", "openmpi"),
                        help="MPI personality to tune against")
    parser.add_argument("--hysteresis", type=float, default=1.0,
                        help=">1 biases toward MPI at shallow crossings")
    parser.add_argument("-o", "--output", default=None,
                        help="write the table JSON here")
    parser.add_argument("--show", action="store_true",
                        help="print each collective's rows")

    args = parser.parse_args(argv)
    cluster = make_system(args.system, args.nodes)
    nranks = args.ranks or cluster.device_count
    mpi_cfg = mvapich_gpu() if args.mpi == "mvapich" else openmpi_ucx()
    table = site_table(cluster, nranks, backend=args.backend,
                       mpi_config=mpi_cfg, hysteresis=args.hysteresis)

    print(f"# tuned {args.system} x{args.nodes} nodes, {nranks} ranks, "
          f"backend={table.backend}, mpi={mpi_cfg.name}")
    if args.show or not args.output:
        for coll in table.entries:
            print(f"  {coll:16s} {table.describe(coll)}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(table.to_json())
        print(f"table written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
