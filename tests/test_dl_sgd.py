"""Real-gradient data-parallel SGD: numerical equivalence across stacks."""

import numpy as np
import pytest

from repro.errors import RankFailedError
from repro.omb.stacks import make_stack
from repro.sim.engine import Engine
from tests.dl_sgd import MLP, make_dataset, train_data_parallel, train_reference


def _run(cluster, stack_name, nranks, steps=4, **kw):
    def body(ctx):
        stack = make_stack(ctx, stack_name, "nccl")
        losses, model = train_data_parallel(ctx, stack, steps=steps, **kw)
        return losses, model.w1.copy()

    return Engine(cluster, nranks=nranks).run(body)


class TestMLP:
    def test_deterministic_init(self):
        a, b = MLP(4, 8, 2, seed=7), MLP(4, 8, 2, seed=7)
        assert np.array_equal(a.w1, b.w1)

    def test_different_seeds_differ(self):
        assert not np.array_equal(MLP(4, 8, 2, 0).w1, MLP(4, 8, 2, 1).w1)

    def test_flatten_roundtrip(self):
        m = MLP(4, 8, 2)
        _loss, grads = m.loss_and_grads(*make_dataset(16, 4, 2))
        flat = MLP.flatten(grads)
        assert flat.size == m.param_count
        back = m.unflatten(flat)
        for g, b in zip(grads, back):
            assert np.array_equal(g, b)

    def test_gradients_match_numerical(self):
        """Analytic gradients vs central differences."""
        m = MLP(3, 5, 2, seed=3)
        x, y = make_dataset(8, 3, 2)
        _loss, grads = m.loss_and_grads(x, y)
        eps = 1e-6
        for idx in [(0, 0), (1, 2)]:
            m.w1[idx] += eps
            lp = m.loss_and_grads(x, y)[0]
            m.w1[idx] -= 2 * eps
            lm = m.loss_and_grads(x, y)[0]
            m.w1[idx] += eps
            numeric = (lp - lm) / (2 * eps)
            # loss_and_grads returns grads of the *sum-normalized* loss
            assert grads[0][idx] == pytest.approx(numeric, rel=1e-4)

    def test_training_reduces_loss(self):
        losses, _model = train_reference(steps=10)
        assert losses[-1] < losses[0]


class TestDataParallelEquivalence:
    @pytest.mark.parametrize("nranks", [2, 4, 8])
    def test_matches_reference(self, thetagpu1, nranks):
        out = _run(thetagpu1, "hybrid", nranks)
        ref_losses, ref_model = train_reference(steps=4, world=nranks)
        for losses, w1 in out:
            assert np.allclose(losses, ref_losses)
            assert np.allclose(w1, ref_model.w1)

    def test_all_ranks_agree_exactly(self, thetagpu1):
        out = _run(thetagpu1, "hybrid", 4)
        w1s = [w1 for _losses, w1 in out]
        for w in w1s[1:]:
            assert np.array_equal(w, w1s[0])  # bitwise: same allreduce result

    @pytest.mark.parametrize("stack", ["hybrid", "pure-xccl", "mpi",
                                       "openmpi", "ucc", "ccl"])
    def test_every_stack_learns_identically(self, thetagpu1, stack):
        out = _run(thetagpu1, stack, 4)
        ref_losses, _ = train_reference(steps=4, world=4)
        assert np.allclose(out[0][0], ref_losses)

    def test_indivisible_batch_rejected(self, thetagpu1):
        with pytest.raises(RankFailedError):
            _run(thetagpu1, "hybrid", 3, global_batch=64)

    def test_more_ranks_same_math(self, thetagpu1):
        """2-way and 8-way training reach the same model (same global
        batch, same averaging), demonstrating scale-invariance."""
        two = _run(thetagpu1, "hybrid", 2)[0][1]
        eight = _run(thetagpu1, "hybrid", 8)[0][1]
        assert np.allclose(two, eight)
