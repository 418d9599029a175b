"""Online autotuning overlay on the static tuning tables (``online_tune``).

The paper's §3.4 tables are tuned offline and frozen; when the model
behind them is wrong for a deployment (different NIC firmware, a noisy
neighbor, a shape the sweep never saw) the runtime keeps taking the
slow route forever.  This module closes the loop: the dispatch
pipeline's execute stage reports each collective's measured virtual
latency back here, keyed by (communicator, collective, power-of-two
size bucket), and after a short warm-up the route stage follows the
*measured* winner instead of the offline table.

Every bucket walks a three-phase state machine:

``OBSERVE``
    The first :attr:`OnlineTuner.observe_calls` calls take the static
    route and record its latency.  Routes never deviate here, which is
    what makes the option provably inert on short runs.
``EXPLORE``
    The next :attr:`OnlineTuner.explore_calls` calls *per alternate
    route* are steered down that route to sample it.
``FITTED``
    The route with the lowest measured mean latency wins the bucket;
    every later call takes it.  One ``online_updates`` counter bump per
    fit, plus ``route_flips`` when the winner differs from the static
    table's choice.

Cross-rank consistency is load-bearing: a collective whose ranks route
differently deadlocks.  Two properties guarantee agreement without any
extra communication:

* the phase is a pure function of the caller's *own* per-bucket call
  index, which is identical on every rank of an SPMD program; and
* the fit is computed once, by whichever rank needs it first, and
  cached — every other rank reads the identical answer.

Ranks run under one run token, so the tuner needs no lock, the sample
set at fit time is deterministic and runs reproduce exactly.

The tuner is a run option: an :class:`repro.sim.engine.Engine` built
with ``online_tune=True`` (default ``MPIX_ONLINE_TUNE``) owns one
:class:`OnlineTuner`; any other engine has none, and its dispatch
pipelines never leave the static table.

Overlays are per-communicator (keyed by ``ctx_id``); a rank's call
counters are a :class:`CallCounts` entry of the communicator's ledger,
whose ``Free`` (``Comm_free`` / ``Comm_shrink``) drops the overlay, so a
shrunk communicator re-tunes from scratch for the survivor shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import fastpath

#: state-machine phase names (also used as trace-marker labels).
OBSERVE, EXPLORE, FITTED = "observe", "explore", "fitted"


def size_bucket(nbytes: int) -> int:
    """Power-of-two size-bucket index for one payload (bucket ``b``
    covers ``2**(b-1) < nbytes <= 2**b``, bucket 0 is empty/1-byte)."""
    if nbytes <= 1:
        return 0
    return int(nbytes - 1).bit_length()


def bucket_span(bucket: int) -> Tuple[int, int]:
    """Inclusive ``(lo, hi)`` byte range a bucket index covers."""
    if bucket <= 0:
        return (0, 1)
    return (2 ** (bucket - 1) + 1, 2 ** bucket)


class _BucketState:
    """Samples and fit for one (comm, collective, size-bucket)."""

    __slots__ = ("static", "candidates", "samples", "fitted")

    def __init__(self, static: str, candidates: Sequence[str]) -> None:
        self.static = static
        self.candidates = tuple(candidates)
        #: route -> [count, total_us]
        self.samples: Dict[str, List[float]] = {}
        self.fitted: Optional[str] = None

    def add(self, route: str, duration_us: float) -> None:
        cell = self.samples.setdefault(route, [0, 0.0])
        cell[0] += 1
        cell[1] += duration_us

    def mean(self, route: str) -> Optional[float]:
        cell = self.samples.get(route)
        if not cell or not cell[0]:
            return None
        return cell[1] / cell[0]


class CallCounts(dict):
    """One rank's per-(collective, size-bucket) call counters on one
    communicator — identical across ranks by SPMD, which keeps tuned
    routes from diverging; :meth:`Free` releases its overlay."""

    def __init__(self, tuner: "OnlineTuner", ctx_id: str) -> None:
        super().__init__()
        self.tuner = tuner
        self.ctx_id = ctx_id

    def Free(self) -> None:
        """``Comm_free`` / ``Comm_shrink`` teardown."""
        self.tuner.release(self.ctx_id)


class OnlineTuner:
    """Engine-shared measured-latency overlay over the static tables.

    One instance per :class:`repro.sim.engine.Engine` (all rank threads
    share it); the dispatch pipeline calls :meth:`advise` from its
    route stage and :meth:`observe` from its execute stage.
    """

    def __init__(self, observe_calls: int = 4, explore_calls: int = 2) -> None:
        self.observe_calls = int(observe_calls)
        self.explore_calls = int(explore_calls)
        self._buckets: Dict[Tuple[str, str, int], _BucketState] = {}

    # -- feedback loop ------------------------------------------------------

    def advise(self, ctx_id: str, coll: str, bucket: int, call_index: int,
               static: str, candidates: Sequence[str]) -> Tuple[str, str]:
        """Route one call: returns ``(route, phase)``.

        ``call_index`` is the calling rank's own per-bucket counter —
        identical across ranks by SPMD — so the phase schedule needs no
        cross-rank coordination.
        """
        key = (ctx_id, coll, bucket)
        state = self._buckets.get(key)
        if state is None:
            state = self._buckets[key] = _BucketState(static, candidates)
        if state.fitted is not None:
            return state.fitted, FITTED
        alts = [c for c in state.candidates if c != state.static]
        fit_at = self.observe_calls + self.explore_calls * len(alts)
        if call_index < self.observe_calls or not alts:
            return state.static, OBSERVE
        if call_index < fit_at:
            slot = (call_index - self.observe_calls) // self.explore_calls
            return alts[slot], EXPLORE
        state.fitted = self._fit(state)
        return state.fitted, FITTED

    def observe(self, ctx_id: str, coll: str, bucket: int, route: str,
                duration_us: float) -> None:
        """Feed one measured execution back into the bucket's samples
        (ignored for buckets :meth:`advise` never routed, and after the
        bucket has fitted — the fit is a one-shot decision)."""
        state = self._buckets.get((ctx_id, coll, bucket))
        if state is not None and state.fitted is None:
            state.add(route, duration_us)

    def _fit(self, state: _BucketState) -> str:
        """Pick the measured winner (static wins ties, for stability)."""
        best, best_mean = state.static, None
        for route in state.candidates:
            mean = state.mean(route)
            if mean is None:
                continue
            if best_mean is None or mean < best_mean or \
                    (mean == best_mean and route == state.static):
                best, best_mean = route, mean
        fastpath.STATS.online_updates += 1
        if best != state.static:
            fastpath.STATS.route_flips += 1
        return best

    # -- lifecycle / reporting ----------------------------------------------

    def release(self, ctx_id: str) -> None:
        """Drop every overlay bucket belonging to one communicator
        (``Comm_free`` / ``Comm_shrink`` teardown)."""
        for key in [k for k in self._buckets if k[0] == ctx_id]:
            del self._buckets[key]

    def overlay(self, ctx_id: Optional[str] = None) -> Dict[Tuple[str, str, int], Dict]:
        """A copy of the adapted state, for tests and ``tune-report``:
        ``{(ctx_id, coll, bucket): {static, fitted, means}}``."""
        out = {}
        for key, state in self._buckets.items():
            if ctx_id is not None and key[0] != ctx_id:
                continue
            out[key] = {
                "static": state.static,
                "fitted": state.fitted,
                "means": {r: state.mean(r) for r in state.samples},
            }
        return out
