from pathlib import Path

import numpy as np
import pytest

from slice_arena.policy import (AdamOptimizer, CheckpointFormatError,
                                DimensionMismatchError, MlpParameters,
                                PolicyOutput, backward_batch, forward_batch,
                                greedy_actions, init_parameters, load_checkpoint,
                                policy_forward, sample_action, save_checkpoint)

from oracles import AdamReference, numerical_gradient, softmax_reference


def zero_params(obs=2, hidden=(2,), actions=3):
    p = init_parameters(obs, actions, hidden=hidden, seed=0)
    p.flat[:] = 0.0
    return p


def single_gradients(params, observation, action, logp_weight=1.0,
                     value_weight=0.0, entropy_weight=0.0):
    """backward_batch at batch 1: the gradient of one sample's f, as one
    vector in the layout of params.flat."""
    _, _, cache = forward_batch(params, np.asarray(observation)[None, :])
    return backward_batch(params, cache, np.array([action]),
                          np.array([logp_weight]), np.array([value_weight]),
                          np.array([entropy_weight]))


class TestForward:
    def test_zero_parameters_uniform(self):
        params = zero_params()
        out = policy_forward(params, np.array([0.3, -0.7]))
        np.testing.assert_allclose(out.action_probabilities, [1 / 3] * 3)
        assert out.state_value == 0.0

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            params = init_parameters(4, 3, hidden=(8, 8), seed=seed)
            out = policy_forward(params, rng.normal(size=4))
            assert abs(out.action_probabilities.sum() - 1.0) < 1e-9
            assert np.all(out.action_probabilities >= 0.0)

    def test_hand_computed_2_2_3(self):
        params = zero_params(obs=2, hidden=(2,), actions=3)
        w1 = np.array([[0.1, -0.2], [0.3, 0.4]])
        b1 = np.array([0.05, -0.05])
        w2 = np.array([[1.0, -1.0], [0.5, 0.25], [-0.75, 2.0]])
        b2 = np.array([0.1, 0.0, -0.1])
        wc1 = np.array([[-0.6, 0.2], [0.8, -0.3]])
        bc1 = np.array([0.0, 0.2])
        wc2 = np.array([[1.5, -2.5]])
        bc2 = np.array([0.25])
        for dst, src in zip(params.arrays(), (w1, b1, w2, b2, wc1, bc1, wc2, bc2)):
            dst[:] = src
        x = np.array([0.4, -0.9])
        h = np.tanh(w1 @ x + b1)
        want_probs = softmax_reference(w2 @ h + b2)
        hc = np.tanh(wc1 @ x + bc1)
        want_value = float((wc2 @ hc + bc2)[0])
        out = policy_forward(params, x)
        np.testing.assert_allclose(out.action_probabilities, want_probs, atol=1e-12)
        assert out.state_value == pytest.approx(want_value, abs=1e-12)

    def test_extreme_logits_stable(self):
        params = zero_params()
        params.actor[-1][1][:] = np.array([50.0, -50.0, 0.0])
        out = policy_forward(params, np.zeros(2))
        assert np.isfinite(out.action_probabilities).all()
        assert abs(out.action_probabilities.sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        params = init_parameters(4, 3, seed=1)
        with pytest.raises(DimensionMismatchError):
            policy_forward(params, np.zeros(5))
        with pytest.raises(DimensionMismatchError):
            policy_forward(params, np.array([np.nan, 0, 0, 0]))


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
BENCH_CHECKPOINTS = ("model.ckpt", "attacked_model.ckpt",
                     *(f"ensemble/member_{i}.ckpt" for i in range(4)))


def perturbed_actor(obs, actions, hidden, seed):
    """init_parameters with actor weights far from the near-uniform init,
    so that the greedy action varies with the observation."""
    params = init_parameters(obs, actions, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed)
    for w, b in params.actor:
        w[...] = rng.normal(0, 2, w.shape)
        b[...] = rng.normal(0, 1, b.shape)
    return params


class TestForwardActor:
    """The actor-only forwards against forward_batch: greedy_actions picks
    forward_batch's most probable action, policy_forward returns its
    probabilities and value bit for bit."""

    @pytest.fixture(params=("init", "loaded"))
    def params(self, request, tmp_path):
        params = init_parameters(8, 3, seed=4)
        if request.param == "loaded":
            save_checkpoint(params, str(tmp_path / "m.ckpt"))
            params = load_checkpoint(str(tmp_path / "m.ckpt"))
        head = params.actor[-1][0]
        assert head.flags.f_contiguous and not head.flags.c_contiguous
        return params

    @pytest.mark.parametrize("batch", (1, 3, 8, 64))
    def test_bit_identical_to_forward_batch(self, params, batch):
        obs = np.random.default_rng(batch).uniform(size=(batch, 8))
        probs, _, _ = forward_batch(params, obs)
        assert greedy_actions(params, obs) == probs.argmax(axis=1).tolist()
        for row in obs:  # the cache-free batch-1 rollout forward
            row_probs, row_values, _ = forward_batch(params, row[None, :])
            out = policy_forward(params, row)
            assert np.array_equal(out.action_probabilities, row_probs[0])
            assert out.state_value == row_values[0]

    @pytest.mark.parametrize("source", (
        *BENCH_CHECKPOINTS, "init-8", "init-64x64", "init-128x128"))
    def test_greedy_is_forward_batch_argmax(self, source):
        if source.startswith("init-"):
            hidden = tuple(int(h) for h in source[5:].split("x"))
            params = perturbed_actor(8, 3, hidden, seed=len(hidden))
        else:
            params = load_checkpoint(str(INPUTS / source))
        rng = np.random.default_rng(17)
        n_resources = params.observation_size - 2  # paper.cfg: 2 DCs, 2 slices
        rows, actions = 0, []
        while rows < 2_000:
            for batch in range(1, 9):
                obs = np.empty((batch, params.observation_size))
                obs[:, :n_resources] = rng.uniform(size=(batch, n_resources))
                obs[:, n_resources:] = np.minimum(
                    rng.poisson(6.0, size=(batch, 2)), 32) / 32
                probs, _, _ = forward_batch(params, obs)
                greedy = greedy_actions(params, obs)
                assert greedy == probs.argmax(axis=1).tolist()
                actions.extend(greedy)
                rows += batch
        assert len(set(actions)) > 1  # the rows reach more than one action

    def test_exact_tie_goes_to_lowest_index(self):
        params = init_parameters(4, 4, hidden=(3,), seed=0)
        w, b = params.actor[-1]
        w[...] = 0.0  # every row's logits are the head bias
        obs = np.random.default_rng(0).uniform(size=(5, 4))
        for bias, expected in (([0.5, 2.0, 2.0, 2.0], 1), ([0.0] * 4, 0),
                               ([-1.0, 3.0, -1.0, 3.0], 1)):
            b[...] = bias
            assert greedy_actions(params, obs) == [expected] * 5

    @pytest.mark.parametrize("bad", (np.zeros((2, 7)), np.zeros(8),
                                     np.full((2, 8), np.nan),
                                     np.array([[0.0] * 7 + [np.inf]])))
    def test_bad_input_rejected(self, bad):
        with pytest.raises(DimensionMismatchError):
            greedy_actions(init_parameters(8, 3, seed=0), bad)


class TestSampling:
    def test_degenerate_distribution(self):
        out = PolicyOutput(np.array([1.0, 0.0, 0.0]), 0.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            action, logp = sample_action(out, rng)
            assert action == 0
            assert logp == 0.0

    def test_uniform_frequencies(self):
        out = PolicyOutput(np.full(3, 1 / 3), 0.0)
        rng = np.random.default_rng(5)
        draws = np.array([sample_action(out, rng)[0] for _ in range(30_000)])
        for a in range(3):
            assert abs((draws == a).mean() - 1 / 3) < 0.02

    def test_seeded_reproducible(self):
        out = PolicyOutput(np.array([0.2, 0.5, 0.3]), 0.0)
        a = [sample_action(out, np.random.default_rng(9)) for _ in range(1)]
        b = [sample_action(out, np.random.default_rng(9)) for _ in range(1)]
        assert a == b


class TestGradients:
    def _f_factory(self, template, obs, action, w_logp, w_value, w_ent):
        def f(flat):
            p = MlpParameters(template.layer_dims, flat)
            probs, values, _ = forward_batch(p, obs[None, :])
            logp = np.log(probs[0])
            entropy = -(probs[0] * logp).sum()
            return w_logp * logp[action] + w_value * values[0] + w_ent * entropy
        return f

    def test_finite_difference_20_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            params = init_parameters(3, 3, hidden=(2,), seed=seed)
            for a in params.arrays():  # rough weights stress the chain rule
                a[:] = rng.normal(scale=0.8, size=a.shape)
            obs = rng.normal(size=3)
            action = int(rng.integers(0, 3))
            w_logp, w_value, w_ent = rng.uniform(-2, 2, size=3)
            analytic = single_gradients(
                params, obs, action, logp_weight=w_logp,
                value_weight=w_value, entropy_weight=w_ent)
            numeric = numerical_gradient(
                self._f_factory(params, obs, action, w_logp, w_value, w_ent),
                params.flat.copy(), eps=1e-5)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_dead_input_feature_zero_gradient(self):
        params = init_parameters(3, 3, hidden=(2,), seed=4)
        obs = np.array([0.7, 0.0, -0.4])
        grads = MlpParameters(params.layer_dims,
                              single_gradients(params, obs, 1, 1.0, 1.0, 1.0))
        assert np.all(grads.actor[0][0][:, 1] == 0.0)
        assert np.all(grads.critic[0][0][:, 1] == 0.0)

    def test_logp_weight_linearity(self):
        params = init_parameters(3, 3, hidden=(2,), seed=6)
        obs = np.array([0.1, -0.2, 0.5])
        g1 = single_gradients(params, obs, 2, logp_weight=1.0)
        g2 = single_gradients(params, obs, 2, logp_weight=2.0)
        np.testing.assert_allclose(g2, 2.0 * g1, atol=1e-15)

    def test_bad_action_rejected(self):
        params = init_parameters(3, 3, hidden=(2,), seed=0)
        for bad in (3, -1):
            with pytest.raises(DimensionMismatchError):
                single_gradients(params, np.zeros(3), bad)

    def test_batch_matches_sum_of_singles(self):
        rng = np.random.default_rng(12)
        params = init_parameters(4, 3, hidden=(5,), seed=12)
        obs = rng.normal(size=(6, 4))
        actions = rng.integers(0, 3, size=6)
        wl = rng.uniform(-1, 1, size=6)
        wv = rng.uniform(-1, 1, size=6)
        we = rng.uniform(-1, 1, size=6)
        _, _, cache = forward_batch(params, obs)
        batched = backward_batch(params, cache, actions, wl, wv, we)
        singles = sum(single_gradients(params, obs[i], int(actions[i]),
                                       wl[i], wv[i], we[i]) for i in range(6))
        np.testing.assert_allclose(batched, singles, atol=1e-12)


class TestInit:
    def test_near_uniform_start(self):
        params = init_parameters(8, 3, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            out = policy_forward(params, rng.uniform(size=8))
            assert out.action_probabilities.max() < 0.36

    def test_deterministic(self):
        a = init_parameters(8, 3, seed=5)
        b = init_parameters(8, 3, seed=5)
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_orthogonal_columns(self):
        params = init_parameters(8, 3, seed=3)
        w1 = params.actor[0][0]  # (64, 8)
        np.testing.assert_allclose(w1.T @ w1, np.eye(8), atol=1e-10)

    def test_validate_catches_shape_drift(self):
        params = init_parameters(4, 3, seed=0)
        with pytest.raises(ValueError):
            MlpParameters(params.layer_dims, params.flat[:-1].copy())
        with pytest.raises(ValueError):
            MlpParameters((4, 64, 64, 2), params.flat)
        drifted = params.copy()
        drifted.actor = [(drifted.actor[0][0][:, :2], drifted.actor[0][1])] + drifted.actor[1:]
        with pytest.raises(ValueError):
            drifted.validate()


class TestAdam:
    def test_first_step_is_signed_unit_step(self):
        params = zero_params(obs=1, hidden=(1,), actions=2)
        grads = MlpParameters(params.layer_dims, np.zeros_like(params.flat))
        grads.actor[0][0][0, 0] = 2.0
        grads.actor[0][1][0] = -3.0
        grads.actor[1][0][0, 0] = 0.5
        opt = AdamOptimizer()
        opt.step(params, grads.flat, learning_rate=0.1)
        # bias-corrected first step: lr * g / (|g| + eps) = lr * sign(g)
        assert params.actor[0][0][0, 0] == pytest.approx(-0.1, rel=1e-6)
        assert params.actor[0][1][0] == pytest.approx(0.1, rel=1e-6)
        assert params.actor[1][0][1, 0] == 0.0

    def test_zero_learning_rate(self):
        params = init_parameters(2, 2, hidden=(2,), seed=0)
        before = params.flat.copy()
        AdamOptimizer().step(params, np.ones_like(params.flat), learning_rate=0.0)
        np.testing.assert_array_equal(params.flat, before)


    def test_fused_step_matches_per_array_reference(self):
        rng = np.random.default_rng(21)
        params = init_parameters(8, 3, hidden=(16, 12), seed=21)
        reference_params = params.copy()
        fused, reference = AdamOptimizer(), AdamReference()
        scales = np.array([0.0, 1.0, 1e150, 1e-150])
        for step in range(50):
            grad = rng.normal(size=params.flat.size) \
                * scales[rng.integers(0, 4, size=params.flat.size)]
            if step % 10 == 3:
                grad[:] = 0.0
            lr = float(rng.choice([3e-4, 1e-2, 0.0]))
            fused.step(params, grad, lr)
            grad_arrays = MlpParameters(params.layer_dims, grad).arrays()
            reference.step(list(reference_params.arrays()), list(grad_arrays), lr)
            assert np.array_equal(params.flat, reference_params.flat)
        for state, arrays in ((fused._m, reference.m), (fused._v, reference.v)):
            for got, want in zip(MlpParameters(params.layer_dims, state).arrays(),
                                 arrays):
                assert np.array_equal(got, want)
        assert np.isfinite(params.flat).all()


class TestLayout:
    """One float64 vector holds every parameter; the stacks view into it."""

    @pytest.mark.parametrize("dims", ((8, (64, 64), 3), (3, (2,), 3),
                                      (5, (7, 3), 4)))
    def test_views_tile_the_buffer_once(self, dims):
        params = init_parameters(dims[0], dims[2], hidden=dims[1], seed=1)
        covered = np.zeros(params.flat.size, dtype=int)
        base = params.flat.__array_interface__["data"][0]
        for a in params.arrays():
            assert np.shares_memory(a, params.flat)
            start = (a.__array_interface__["data"][0] - base) // 8
            covered[start:start + a.size] += 1
            # each block is contiguous, C order unless it has fewer rows
            # than columns, then Fortran order
            wide = a.ndim == 2 and a.shape[0] < a.shape[1]
            assert a.flags.f_contiguous if wide else a.flags.c_contiguous
        assert np.all(covered == 1)
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64

    def test_head_fortran_ordered_after_init_and_load(self, tmp_path):
        params = init_parameters(8, 3, seed=2)
        save_checkpoint(params, str(tmp_path / "m.ckpt"))
        for p in (params, load_checkpoint(str(tmp_path / "m.ckpt"))):
            head = p.actor[-1][0]
            assert head.shape == (3, 64)
            assert head.flags.f_contiguous and not head.flags.c_contiguous

    def test_loaded_model_acts_like_the_saved_one(self, tmp_path):
        # the head's memory order survives the round trip, so batch-1
        # forwards of a reloaded model match the model that wrote it bit
        # for bit (a C-ordered reloaded head differs on a few observations)
        for seed in range(3):
            params = init_parameters(8, 3, seed=seed)
            save_checkpoint(params, str(tmp_path / "m.ckpt"))
            loaded = load_checkpoint(str(tmp_path / "m.ckpt"))
            for obs in np.random.default_rng(seed).uniform(size=(200, 8)):
                want, got = policy_forward(params, obs), policy_forward(loaded, obs)
                assert np.array_equal(got.action_probabilities, want.action_probabilities)
                assert got.state_value == want.state_value

    def test_writes_through_views_reach_the_buffer(self):
        params = init_parameters(4, 3, hidden=(6,), seed=3)
        params.actor[-1][0][2, 5] = 7.5
        params.critic[0][1][:] = -1.0
        assert (params.flat == 7.5).sum() == 1
        assert (params.flat == -1.0).sum() == 6

    def test_copy_is_independent(self):
        params = init_parameters(4, 3, hidden=(6,), seed=3)
        clone = params.copy()
        assert not np.shares_memory(clone.flat, params.flat)
        before = params.flat.copy()
        for a in clone.arrays():
            a += 1.0
        assert np.array_equal(params.flat, before)
        assert np.array_equal(clone.flat, before + 1.0)
        assert all(np.shares_memory(a, clone.flat) for a in clone.arrays())

    def test_validate_rejects_non_finite(self):
        params = init_parameters(4, 3, hidden=(6,), seed=3)
        for bad in (np.nan, np.inf):
            broken = params.copy()
            broken.actor[-1][0][1, 2] = bad
            with pytest.raises(ValueError):
                broken.validate()


class TestCheckpoints:
    def test_round_trip_exact(self, tmp_path):
        params = init_parameters(8, 3, seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.layer_dims == params.layer_dims
        for a, b in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_serialize_deserialize_serialize_bytes_identical(self, tmp_path):
        params = init_parameters(5, 4, hidden=(7, 3), seed=13)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(params, str(p1))
        save_checkpoint(load_checkpoint(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_text_is_row_major_per_array(self, tmp_path):
        # a transposed block is written in logical row-major order
        params = init_parameters(3, 3, hidden=(2,), seed=0)
        params.flat[:] = np.arange(params.flat.size)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))
        values = [float(v) for v in path.read_text().splitlines()[3:]]
        assert values == [float(v) for a in params.arrays() for v in a.ravel()]
        w1 = params.actor[0][0]  # (2, 3), stored transposed
        assert values[:6] == [w1[0, 0], w1[0, 1], w1[0, 2], w1[1, 0], w1[1, 1], w1[1, 2]]
        assert values[:6] != list(range(6))
        loaded = load_checkpoint(str(path))
        assert np.array_equal(loaded.flat, params.flat)

    def test_lf_endings_and_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_parameters(2, 2, hidden=(2,), seed=0), str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"SLICE-ARENA-PPO v1\n")

    def test_malformed_files(self, tmp_path):
        params = init_parameters(2, 2, hidden=(2,), seed=0)
        good = tmp_path / "good.ckpt"
        save_checkpoint(params, str(good))
        lines = good.read_text().splitlines()

        bad = tmp_path / "bad.ckpt"
        bad.write_text("NOPE v9\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(bad))

        bad.write_text("\n".join([lines[0], "99"] + lines[2:]) + "\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(bad))

        bad.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(bad))

        bad.write_text("\n".join(lines[:3] + ["zap"] + lines[4:]) + "\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(bad))

        bad.write_text("\n".join(lines[:3] + ["nan"] + lines[4:]) + "\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(bad))
