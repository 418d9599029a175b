"""Memory smoke (``make mem-smoke``): peak RSS is live buffers, not
engines built.

One quick ``fig5`` sweep — 52 short-lived 8-rank engines, 1 to 8 MiB of
device buffers a rank — in this (fresh) process, the cycle collector
left at its defaults and never called.  Prints the process's peak
resident set (``ru_maxrss``) and how many bytes ``Accelerator.zeros``
zeroed; exits non-zero above ``LIMIT_MIB``.

Measured with the default allocator, one sweep: about 700 MiB while
every root ``DeviceBuffer`` was a reference cycle waiting for the
collector, about 250 MiB now (docs/performance.md, "Memory").  The
sweep is the stand-in, on the ``src/`` side, for a per-workload
``peak_rss_mb`` ceiling in the end-to-end benchmark (ROADMAP item 7).
"""

from __future__ import annotations

import contextlib
import resource
import sys

from repro.experiments import run_experiment
from repro.hw.device import Accelerator

LIMIT_MIB = 450.0


@contextlib.contextmanager
def counting_zeros():
    """Yield the list ``Accelerator.zeros`` appends each allocation's
    byte count to while the block runs."""
    zeroed = []
    zeros = Accelerator.zeros

    def counting(self, count, dtype="float32"):
        buf = zeros(self, count, dtype)
        zeroed.append(buf.nbytes)
        return buf

    Accelerator.zeros = counting
    try:
        yield zeroed
    finally:
        Accelerator.zeros = zeros


def main() -> int:
    with counting_zeros() as zeroed:
        results = run_experiment("fig5", scale="quick")
    # Linux reports ru_maxrss in KiB
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"fig5 quick sweep: {len(results)} records, "
          f"peak RSS {peak_mib:.0f} MiB (limit {LIMIT_MIB:.0f}), "
          f"{sum(zeroed) / (1 << 30):.2f} GiB zeroed in {len(zeroed)} "
          f"Accelerator.zeros calls")
    if peak_mib > LIMIT_MIB:
        print(f"FAIL: peak RSS above {LIMIT_MIB:.0f} MiB — device buffers "
              f"are outliving their last reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
