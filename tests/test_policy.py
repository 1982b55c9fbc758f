import numpy as np
import pytest

from slice_arena.policy import (AdamOptimizer, CheckpointFormatError,
                                DimensionMismatchError, MlpParameters,
                                PolicyOutput, backward_batch, forward_actor,
                                forward_batch, init_parameters, load_checkpoint,
                                policy_forward, sample_action, save_checkpoint)

from oracles import numerical_gradient, softmax_reference


def zero_params(obs=2, hidden=(2,), actions=3):
    p = init_parameters(obs, actions, hidden=hidden, seed=0)
    for a in p.arrays():
        a[:] = 0.0
    return p


def flatten(params):
    return np.concatenate([a.reshape(-1) for a in params.arrays()])


def unflatten_into(params, flat):
    pos = 0
    for a in params.arrays():
        n = a.size
        a[:] = flat[pos:pos + n].reshape(a.shape)
        pos += n


def single_gradients(params, observation, action, logp_weight=1.0,
                     value_weight=0.0, entropy_weight=0.0):
    """backward_batch at batch 1: the gradient of one sample's f."""
    _, _, cache = forward_batch(params, np.asarray(observation)[None, :])
    return backward_batch(params, cache, np.array([action]),
                          np.array([logp_weight]), np.array([value_weight]),
                          np.array([entropy_weight]))


def grads_to_flat(actor_grads, critic_grads):
    flat = []
    for gw, gb in list(actor_grads) + list(critic_grads):
        flat.append(gw.reshape(-1))
        flat.append(gb.reshape(-1))
    return np.concatenate(flat)


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


class TestForwardActor:
    """The actor-only forward against forward_batch's probabilities."""

    @pytest.fixture(params=("init", "loaded"))
    def params(self, request, tmp_path):
        params = init_parameters(8, 3, seed=4)
        head = params.actor[-1][0]
        if request.param == "loaded":
            save_checkpoint(params, str(tmp_path / "m.ckpt"))
            params = load_checkpoint(str(tmp_path / "m.ckpt"))
            head = params.actor[-1][0]
            assert head.flags.c_contiguous and not head.flags.f_contiguous
        else:
            assert head.flags.f_contiguous and not head.flags.c_contiguous
        return params

    @pytest.mark.parametrize("batch", (1, 3, 8, 64))
    def test_bit_identical_to_forward_batch(self, params, batch):
        obs = np.random.default_rng(batch).uniform(size=(batch, 8))
        probs, _, _ = forward_batch(params, obs)
        assert np.array_equal(forward_actor(params, obs), probs)

    @pytest.mark.parametrize("bad", (np.zeros((2, 7)), np.zeros(8),
                                     np.full((2, 8), np.nan),
                                     np.array([[0.0] * 7 + [np.inf]])))
    def test_bad_input_rejected(self, bad):
        with pytest.raises(DimensionMismatchError):
            forward_actor(init_parameters(8, 3, seed=0), bad)


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
            p = template.copy()
            unflatten_into(p, flat)
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
            actor_g, critic_g = single_gradients(
                params, obs, action, logp_weight=w_logp,
                value_weight=w_value, entropy_weight=w_ent)
            analytic = grads_to_flat(actor_g, critic_g)
            numeric = numerical_gradient(
                self._f_factory(params, obs, action, w_logp, w_value, w_ent),
                flatten(params), eps=1e-5)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_dead_input_feature_zero_gradient(self):
        params = init_parameters(3, 3, hidden=(2,), seed=4)
        obs = np.array([0.7, 0.0, -0.4])
        actor_g, critic_g = single_gradients(params, obs, 1, 1.0, 1.0, 1.0)
        assert np.all(actor_g[0][0][:, 1] == 0.0)
        assert np.all(critic_g[0][0][:, 1] == 0.0)

    def test_logp_weight_linearity(self):
        params = init_parameters(3, 3, hidden=(2,), seed=6)
        obs = np.array([0.1, -0.2, 0.5])
        g1, _ = single_gradients(params, obs, 2, logp_weight=1.0)
        g2, _ = single_gradients(params, obs, 2, logp_weight=2.0)
        for (w1, b1), (w2, b2) in zip(g1, g2):
            np.testing.assert_allclose(w2, 2.0 * w1, atol=1e-15)
            np.testing.assert_allclose(b2, 2.0 * b1, atol=1e-15)

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
        actor_b, critic_b = backward_batch(params, cache, actions, wl, wv, we)
        actor_s = None
        critic_s = None
        for i in range(6):
            ag, cg = single_gradients(params, obs[i], int(actions[i]),
                                      wl[i], wv[i], we[i])
            if actor_s is None:
                actor_s, critic_s = ag, cg
            else:
                actor_s = [(aw + gw, ab + gb) for (aw, ab), (gw, gb) in zip(actor_s, ag)]
                critic_s = [(aw + gw, ab + gb) for (aw, ab), (gw, gb) in zip(critic_s, cg)]
        for (bw, bb), (sw, sb) in zip(actor_b + critic_b, actor_s + critic_s):
            np.testing.assert_allclose(bw, sw, atol=1e-12)
            np.testing.assert_allclose(bb, sb, atol=1e-12)


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
        params.actor[0] = (params.actor[0][0][:, :2], params.actor[0][1])
        with pytest.raises(ValueError):
            params.validate()


class TestAdam:
    def test_first_step_is_signed_unit_step(self):
        params = zero_params(obs=1, hidden=(1,), actions=2)
        grads_a = [(np.array([[2.0]]), np.array([-3.0])),
                   (np.array([[0.5], [0.0]]), np.array([0.0, 0.0]))]
        grads_c = [(np.array([[0.0]]), np.array([0.0])),
                   (np.array([[0.0]]), np.array([0.0]))]
        opt = AdamOptimizer()
        opt.step(params, grads_a, grads_c, learning_rate=0.1)
        # bias-corrected first step: lr * g / (|g| + eps) = lr * sign(g)
        assert params.actor[0][0][0, 0] == pytest.approx(-0.1, rel=1e-6)
        assert params.actor[0][1][0] == pytest.approx(0.1, rel=1e-6)
        assert params.actor[1][0][1, 0] == 0.0

    def test_zero_learning_rate(self):
        params = init_parameters(2, 2, hidden=(2,), seed=0)
        before = flatten(params).copy()
        g_a = [(np.ones_like(w), np.ones_like(b)) for w, b in params.actor]
        g_c = [(np.ones_like(w), np.ones_like(b)) for w, b in params.critic]
        AdamOptimizer().step(params, g_a, g_c, learning_rate=0.0)
        np.testing.assert_array_equal(flatten(params), before)


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
