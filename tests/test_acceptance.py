"""End-to-end acceptance checklist.

Eleven numbered checks, one test each, run at the project's stated
tolerances on the shipped paper.cfg scenario. The expensive artifacts
(trained models, the defense ensemble, the five-scenario comparisons)
are built once per session by the fixtures below at full fidelity:
2e5 env steps for the single models, 20 evaluation seeds, 200 slots.

Checks 3-6 assert admission targets that the shipped constants cannot
meet: each slice may run at most 8 chains, which depart with probability
0.3 per slot, so it admits at most 8 x 0.3 = 2.4 of its 6 arrivals per
slot, capping any policy's admission near 0.40 (the data centers are not
the limit: 16 chains fit in 40/64 CPU and 96/100 memory), and the
observation-forgery attack at probability 0.25 replaces resource
channels that the trained policy barely reads. Those tests are kept at full strength and fail honestly with
the measured values in their messages rather than being weakened to
pass.
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slice_arena.baselines import myopic_exhaustive_decision
from slice_arena.dimensioning import (TrafficProfile, estimate_vnf_count,
                                      mean_sojourn_time,
                                      overprovision_power_ratio,
                                      overprovision_study_scenario)
from slice_arena.harness import (compare, run_scenario,
                                 train_defense_ensemble, train_single_models,
                                 write_results)
from slice_arena.policy import (MlpParameters, backward_batch, forward_batch,
                                init_parameters)
from slice_arena.ppo import clipped_surrogate_loss

from conftest import PAPER_PROFILE, make_dc, make_slice
from oracles import lindley_mm1_sojourn, numerical_gradient

# the full-budget criteria; `pytest -m "not acceptance"` runs the rest
pytestmark = pytest.mark.acceptance

TRAIN_STEPS = 200_000
ENSEMBLE_STEPS = 240_000
POWER_STEPS = 60_000


@pytest.fixture(scope="session")
def trained(paper_cfg, tmp_path_factory):
    """Full-budget artifacts for the admission regime, timed."""
    artifacts = tmp_path_factory.mktemp("acceptance-artifacts")
    start = time.perf_counter()
    train_single_models(paper_cfg, artifacts, seed=0,
                        total_env_steps=TRAIN_STEPS)
    single_seconds = time.perf_counter() - start
    train_defense_ensemble(paper_cfg, artifacts, seed=0,
                           total_env_steps=ENSEMBLE_STEPS)
    total_seconds = time.perf_counter() - start
    return {"artifacts": artifacts, "single_seconds": single_seconds,
            "total_seconds": total_seconds}


@pytest.fixture(scope="session")
def comparison(paper_cfg, trained):
    """All five scenarios, 20 seeds x 200 slots, identical streams."""
    start = time.perf_counter()
    results = compare(paper_cfg, trained["artifacts"])
    elapsed = time.perf_counter() - start
    return {r.name: r for r in results}, elapsed


@pytest.fixture(scope="session")
def power_comparison(paper_cfg, tmp_path_factory):
    """The same five scenarios in the power regime (kappa = 1)."""
    cfg = replace(paper_cfg, kappa=1.0)
    artifacts = tmp_path_factory.mktemp("acceptance-power")
    train_single_models(cfg, artifacts, seed=0, total_env_steps=POWER_STEPS)
    train_defense_ensemble(cfg, artifacts, seed=0,
                           total_env_steps=POWER_STEPS)
    return {r.name: r for r in compare(cfg, artifacts)}


def test_criterion_01_dimensioning_is_exact():
    start = time.perf_counter()
    result = estimate_vnf_count(TrafficProfile(mean_arrival_rate=1.0,
                                               mean_service_rate=2.0,
                                               delay_budget=1.07))
    elapsed = time.perf_counter() - start
    assert result.vnf_count == 8
    assert result.total_delay <= 1.07
    assert elapsed < 1.0


def test_criterion_02_sojourn_matches_discrete_event_simulation():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    for trial in range(10):
        mu = float(rng.uniform(0.5, 4.0))
        count = int(rng.integers(1, 12))
        # utilization capped: hotter queues need far more than 1e6
        # arrivals before the simulation itself is 2%-accurate
        rho = float(rng.uniform(0.3, 0.75))
        alpha = rho * mu * count
        want = mean_sojourn_time(mu, alpha, count)
        got = lindley_mm1_sojourn(mu, alpha / count, n_arrivals=10**6,
                                  seed=5000 + trial)
        assert got == pytest.approx(want, rel=0.02)
    assert time.perf_counter() - start < 60.0


def test_criterion_03_trained_admission_floor(paper_cfg, trained, comparison):
    results, _ = comparison
    assert TRAIN_STEPS >= 200_000
    assert trained["single_seconds"] <= 1800.0
    assert len(paper_cfg.seeds) == 20 and paper_cfg.horizon == 200
    admission = results["ppo-clean"].aggregate.admission_rate
    ceiling = results["optimal"].aggregate.admission_rate
    assert admission >= 0.80, (
        f"mean admission over 20 seeds is {admission:.4f}; the exhaustive "
        f"myopic baseline reaches only {ceiling:.4f} because the per-slice "
        f"chain cap of 8 with departure probability 0.3 admits at most 2.4 "
        f"of 6 arrivals per slice per slot (0.40), so the 0.80 floor is "
        f"unreachable under these constants")


def test_criterion_04_clean_model_beats_random(comparison):
    results, _ = comparison
    clean = results["ppo-clean"].aggregate
    random_ = results["random"].aggregate
    assert clean.admission_rate >= 1.4 * random_.admission_rate, (
        f"ppo-clean admission {clean.admission_rate:.4f} vs random "
        f"{random_.admission_rate:.4f} (bar {1.4 * random_.admission_rate:.4f}). "
        f"Random scores slot reward {random_.mean_slot_reward:.0f} "
        f"(infeasible-attempt penalties) against ppo-clean's "
        f"{clean.mean_slot_reward:.0f}: training against that penalty "
        f"taught the policy to reject broadly, not to stop at the caps, so "
        f"it rejects requests that both data centers could still take. The "
        f"bar also lies above the ~0.40 admission ceiling that the per-slice "
        f"chain cap sets for every policy at this load")


def test_criterion_05_attack_halves_admission(comparison):
    results, _ = comparison
    clean = results["ppo-clean"].aggregate.admission_rate
    attacked = results["ppo-attacked"].aggregate.admission_rate
    assert attacked <= 0.5 * clean, (
        f"attacked/clean admission ratio is {attacked / clean:.3f} "
        f"({attacked:.4f} vs {clean:.4f}). The forgery replaces the "
        f"observation's resource channels, and greedy PPO barely reads "
        f"them: on seeds 101-108 at p = 0.25 the clean model, never trained "
        f"on forgeries, admits 0.2059 on true observations, 0.2390 under "
        f"the uniform forgery, 0.2076 under a forged full cluster and "
        f"0.2426 under a forged empty one, so forging them cannot halve "
        f"its admission")


def test_criterion_06_ensemble_recovers(comparison):
    results, elapsed = comparison
    assert elapsed <= 7200.0
    attacked = results["ppo-attacked"].aggregate.admission_rate
    mtd = results["ppo-mtd"].aggregate.admission_rate
    assert mtd >= 1.5 * attacked, (
        f"ensemble admission {mtd:.4f} vs attacked single {attacked:.4f} "
        f"(bar {1.5 * attacked:.4f}); recovery presupposes a collapsed "
        f"single model, but the attack leaves it near the clean level, "
        f"and no ensemble of comparable members can exceed 1.5x that")


def test_criterion_07_power_regime_orderings(power_comparison):
    power = {name: r.aggregate.mean_normalized_power
             for name, r in power_comparison.items()}
    eps = 1e-9
    assert power["optimal"] <= power["ppo-clean"] + eps, power
    assert power["ppo-clean"] <= power["random"] + eps, power
    assert power["ppo-mtd"] <= power["ppo-attacked"] + eps, power


def test_criterion_08_overprovision_power_ratios(paper_cfg):
    start = time.perf_counter()
    study = overprovision_study_scenario(paper_cfg)
    base = estimate_vnf_count(PAPER_PROFILE)
    ratio_10 = overprovision_power_ratio(base, 10, study)
    ratio_12 = overprovision_power_ratio(base, 12, study)
    assert ratio_10 > 0.0 and ratio_12 > 0.0
    assert ratio_12 > ratio_10
    assert abs(ratio_10 - 0.21) <= 0.10, ratio_10
    assert abs(ratio_12 - 0.27) <= 0.10, ratio_12
    assert time.perf_counter() - start < 600.0


def test_criterion_09_gradients_match_finite_differences():
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        params = init_parameters(3, 3, hidden=(4,), seed=seed)
        for a in params.arrays():
            a[:] = rng.normal(scale=0.6, size=a.shape)
        T = 6
        obs = rng.normal(size=(T, 3))
        actions = rng.integers(0, 3, size=T)
        flat0 = params.flat.copy()

        def run_at(flat):
            p = MlpParameters(params.layer_dims, flat)
            probs, values, _ = forward_batch(p, obs)
            logp = np.log(probs[np.arange(T), actions])
            entropy = -(probs * np.log(probs)).sum(axis=1)
            return probs, values, logp, entropy

        def analytic(logp_w, value_w, entropy_w):
            _, values, cache = forward_batch(params, obs)
            return backward_batch(
                params, cache, actions, logp_weights=logp_w,
                value_weights=value_w, entropy_weights=entropy_w)

        # policy core: a fixed blend of log-prob, value, and entropy
        def core_scalar(flat):
            _, values, logp, entropy = run_at(flat)
            return float(np.mean(logp) + 0.5 * np.mean(values)
                         + 0.25 * np.mean(entropy))

        got = analytic(np.full(T, 1.0 / T), np.full(T, 0.5 / T),
                       np.full(T, 0.25 / T))
        want = numerical_gradient(core_scalar, flat0, eps=1e-5)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-7)

        # full clipped objective with jittered old log-probs
        probs0, _, _ = forward_batch(params, obs)
        old_logp = (np.log(probs0[np.arange(T), actions])
                    + rng.normal(scale=0.3, size=T))
        advantages = rng.normal(size=T)
        returns = rng.normal(size=T)

        def loss_scalar(flat):
            probs, values, logp, entropy = run_at(flat)
            clip_loss, _, _, _ = clipped_surrogate_loss(
                logp, old_logp, advantages, 0.2)
            return (clip_loss + 0.5 * float(np.mean((values - returns) ** 2))
                    - 0.01 * float(np.mean(entropy)))

        probs, values, _ = forward_batch(params, obs)
        logp = np.log(probs[np.arange(T), actions])
        _, d_logp, _, _ = clipped_surrogate_loss(logp, old_logp, advantages, 0.2)
        got = analytic(d_logp / T, 2.0 * 0.5 * (values - returns) / T,
                       np.full(T, -0.01 / T))
        want = numerical_gradient(loss_scalar, flat0, eps=1e-5)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-7)
    assert time.perf_counter() - start < 60.0


def test_criterion_10_oracle_matches_hand_enumeration():
    from collections import deque

    from slice_arena.env import ClusterState, ResourceVector

    start = time.perf_counter()

    def cluster(remaining):
        return ClusterState(remaining=list(remaining), chains=[],
                            pending=deque(), slot_index=0)

    # pinned instance 1: demand (2,7,30) only fits the second data center
    dcs = (make_dc("dc1", memory=5, power=(150, 150)),
           make_dc("dc2", power=(150, 150)))
    state = cluster([ResourceVector(32, 5, 5000), ResourceVector(32, 50, 5000)])
    spec = make_slice(priority=2.0)
    assert myopic_exhaustive_decision([spec], state, 1000.0, dcs) == (2,)

    # pinned instance 2: memory for exactly one admission; cost tie between
    # (0,1) and (1,0) resolves to the lexicographically smaller vector
    dcs = (make_dc("dc1", memory=7, power=(150, 150)),)
    state = cluster([ResourceVector(32, 7, 5000)])
    spec = make_slice(priority=1.0)
    assert myopic_exhaustive_decision([spec, spec], state, 1000.0, dcs) == (0, 1)

    # pinned instance 3: holding the slot for the later high-priority
    # request beats greedily admitting the earlier low-priority one
    dcs = (make_dc("dc1", memory=7, power=(150, 150)),)
    state = cluster([ResourceVector(32, 7, 5000)])
    low = make_slice("low", priority=1.0)
    high = make_slice("high", priority=5.0)
    assert myopic_exhaustive_decision([low, high], state, 1000.0, dcs) == (0, 1)

    # self-consistency: the decision is feasible and no enumerated
    # assignment (independent itertools enumeration and coster) beats it
    def hand_cost(assignment, specs, state, kappa, dcs):
        remaining = [list(r.as_tuple()) for r in state.remaining]
        admitted = {}
        power = sum(c.power for c in state.chains)
        bonus = 0.0
        for choice, s in zip(assignment, specs):
            if choice == 0:
                continue
            i = choice - 1
            need = s.demand.as_tuple()
            active = (state.active_count(s.slice_id)
                      + admitted.get(s.slice_id, 0))
            if active >= s.chain_capacity:
                return None
            if any(h < n for h, n in zip(remaining[i], need)):
                return None
            remaining[i] = [h - n for h, n in zip(remaining[i], need)]
            admitted[s.slice_id] = admitted.get(s.slice_id, 0) + 1
            lo, hi = dcs[i].power_range
            power += (lo + hi) / 2.0
            bonus += s.priority
        return power - kappa * bonus

    rng = np.random.default_rng(4242)
    two_dcs = (make_dc("dc1", power=(150, 150)), make_dc("dc2", power=(150, 150)))
    for _ in range(100):
        k = int(rng.integers(1, 5))
        kappa = float(rng.choice([1.0, 100.0, 1000.0]))
        state = cluster([ResourceVector(int(rng.integers(2, 12)),
                                        int(rng.integers(5, 20)),
                                        int(rng.integers(30, 200)))
                         for _ in range(2)])
        specs = [make_slice(f"s{i}", priority=float(rng.integers(1, 5)),
                            demand=(int(rng.integers(1, 4)),
                                    int(rng.integers(3, 9)),
                                    int(rng.integers(10, 60))),
                            chain_capacity=int(rng.integers(1, 4)))
                 for i in range(k)]
        got = myopic_exhaustive_decision(specs, state, kappa, two_dcs)
        got_cost = hand_cost(got, specs, state, kappa, two_dcs)
        assert got_cost is not None
        for assignment in itertools.product(range(3), repeat=k):
            cost = hand_cost(assignment, specs, state, kappa, two_dcs)
            if cost is not None:
                assert got_cost <= cost + 1e-9
                if cost <= got_cost + 1e-9:
                    # cost ties must resolve to the smallest vector
                    assert tuple(got) <= tuple(assignment)
    assert time.perf_counter() - start < 60.0


def test_criterion_11_reruns_are_byte_identical(paper_cfg, trained, tmp_path):
    seeds = paper_cfg.seeds[:3]
    for name in ("optimal", "ppo-clean", "ppo-attacked", "ppo-mtd", "random"):
        blobs = []
        for attempt in ("first", "second"):
            result = run_scenario(name, paper_cfg, seeds=seeds,
                                  artifacts=trained["artifacts"])
            out = tmp_path / f"{name}-{attempt}"
            metrics_path, summary_path = write_results([result], out, paper_cfg)
            blobs.append((Path(metrics_path).read_bytes(),
                          Path(summary_path).read_bytes()))
        assert blobs[0][0] == blobs[1][0], f"{name}: metrics.csv differs"
        assert blobs[0][1] == blobs[1][1], f"{name}: summary.csv differs"
        assert len(blobs[0][0].splitlines()) > 1
