import math

import numpy as np
import pytest

from slice_arena import (DimensioningResult, InfeasibleBudgetError,
                         TrafficProfile, UnstableQueueError,
                         estimate_vnf_count, mean_sojourn_time,
                         overprovision_power_ratio,
                         overprovision_study_scenario)

from conftest import PAPER_PROFILE
from oracles import greedy_mean_power_reference, lindley_mm1_sojourn


class TestMeanSojournTime:
    def test_closed_form_single_chain(self):
        # 1/(mu - alpha) with mu=2, alpha=1
        assert mean_sojourn_time(2.0, 1.0, 1) == pytest.approx(1.0)

    def test_load_split_over_chains(self):
        # per-chain load 1/8, sojourn 1/(2 - 0.125)
        assert mean_sojourn_time(2.0, 1.0, 8) == pytest.approx(1.0 / 1.875)

    def test_zero_arrivals(self):
        assert mean_sojourn_time(2.0, 0.0, 3) == pytest.approx(0.5)

    def test_unstable_raises(self):
        with pytest.raises(UnstableQueueError):
            mean_sojourn_time(2.0, 2.0, 1)
        with pytest.raises(UnstableQueueError):
            mean_sojourn_time(1.0, 5.0, 4)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            mean_sojourn_time(2.0, 1.0, 0)
        with pytest.raises(ValueError):
            mean_sojourn_time(0.0, 1.0, 1)

    def test_matches_discrete_event_simulation(self):
        # ten random stable triples, 2% relative tolerance at 1e6 arrivals
        rng = np.random.default_rng(2024)
        for trial in range(10):
            mu = float(rng.uniform(0.5, 4.0))
            count = int(rng.integers(1, 12))
            # utilization capped at 0.75: queue autocorrelation grows like
            # (1-rho)^-3, so hotter queues need far more than 1e6 arrivals
            # for the simulation itself to be 2%-accurate
            rho = float(rng.uniform(0.3, 0.75))
            alpha = rho * mu * count
            want = mean_sojourn_time(mu, alpha, count)
            got = lindley_mm1_sojourn(mu, alpha / count, n_arrivals=10**6,
                                      seed=900 + trial)
            assert got == pytest.approx(want, rel=0.02)


class TestEstimateVnfCount:
    def test_published_operating_point(self):
        result = estimate_vnf_count(PAPER_PROFILE)
        assert result.vnf_count == 8
        assert result.total_delay <= 1.07
        assert result.total_delay == pytest.approx(2.0 / (2.0 - 1.0 / 8.0))

    def test_minimum_one_chain(self):
        # alpha tiny: formula ceiling would be 0 without the floor
        result = estimate_vnf_count(TrafficProfile(1e-9, 10.0, 10.0))
        assert result.vnf_count == 1

    def test_infeasible_budget(self):
        # even an unloaded stage needs mu > 2/budget
        with pytest.raises(InfeasibleBudgetError):
            estimate_vnf_count(TrafficProfile(1.0, 2.0, 1.0))

    def test_budget_tightness(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            mu = float(rng.uniform(0.5, 5.0))
            budget = float(rng.uniform(0.1, 5.0))
            alpha = float(rng.uniform(0.1, 10.0))
            if mu <= 2.0 / budget:
                continue
            result = estimate_vnf_count(TrafficProfile(alpha, mu, budget))
            assert result.total_delay <= budget + 1e-12
            if result.vnf_count >= 2:
                delay_smaller = 2.0 * mean_sojourn_time(mu, alpha, result.vnf_count - 1) \
                    if mu > alpha / (result.vnf_count - 1) else math.inf
                assert delay_smaller > budget
            checked += 1

    def test_monotonicity_grid(self):
        # non-decreasing in alpha, non-increasing in mu and budget
        rng = np.random.default_rng(99)
        count = 0
        while count < 100:
            mu = float(rng.uniform(1.0, 5.0))
            budget = float(rng.uniform(0.5, 4.0))
            alpha = float(rng.uniform(0.1, 8.0))
            if mu <= 2.0 / budget or mu * 1.1 <= 2.0 / budget:
                continue
            base = estimate_vnf_count(TrafficProfile(alpha, mu, budget)).vnf_count
            assert estimate_vnf_count(TrafficProfile(alpha * 1.3, mu, budget)).vnf_count >= base
            assert estimate_vnf_count(TrafficProfile(alpha, mu * 1.1, budget)).vnf_count <= base
            assert estimate_vnf_count(TrafficProfile(alpha, mu, budget * 1.2)).vnf_count <= base
            count += 1

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TrafficProfile(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            TrafficProfile(1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            TrafficProfile(1.0, 2.0, math.inf)


@pytest.fixture(scope="module")
def study(paper_cfg):
    return overprovision_study_scenario(paper_cfg, "s1")


@pytest.fixture(scope="module")
def base():
    return estimate_vnf_count(PAPER_PROFILE)


class TestOverprovisionRatio:
    def test_identical_configuration_is_zero(self, study, base):
        assert overprovision_power_ratio(base, base.vnf_count, study) == 0.0

    def test_published_band(self, study, base):
        r10 = overprovision_power_ratio(base, 10, study)
        r12 = overprovision_power_ratio(base, 12, study)
        assert abs(r10 - 0.21) <= 0.10
        assert abs(r12 - 0.27) <= 0.10

    def test_matches_per_request_reference(self, study, base):
        base_power = greedy_mean_power_reference(study, base.vnf_count, 3000, 7)
        for inflated in (10, 12):
            power = greedy_mean_power_reference(study, inflated, 3000, 7)
            assert overprovision_power_ratio(base, inflated, study) == \
                (power - base_power) / base_power

    def test_monotone_in_inflated_count(self, study, base):
        ratios = [overprovision_power_ratio(base, m, study, slots=1500)
                  for m in (8, 9, 10, 11, 12)]
        for lo, hi in zip(ratios, ratios[1:]):
            assert hi >= lo

    def test_saturated_deterministic_limit(self, paper_cfg):
        # departures certain each slot, fixed power, load far above capacity:
        # every deployed chain is re-filled every slot, so the ratio is exact
        from dataclasses import replace
        study = overprovision_study_scenario(paper_cfg, "s1",
                                             occupancy_target=60.0)
        sl = replace(study.slices[0], departure_prob=1.0, arrival_mean=60.0)
        dcs = tuple(replace(dc, power_range=(150.0, 150.0))
                    for dc in study.datacenters)
        study = replace(study, slices=(sl,), datacenters=dcs)
        base = DimensioningResult(vnf_count=8, per_stage_delay=0.0, total_delay=0.0)
        ratio = overprovision_power_ratio(base, 10, study, slots=300)
        assert ratio == pytest.approx((10 - 8) / 8, abs=1e-9)

    def test_unknown_slice_rejected(self, paper_cfg):
        with pytest.raises(ValueError):
            overprovision_study_scenario(paper_cfg, "nope")

    def test_bad_inflated_count(self, study, base):
        with pytest.raises(ValueError):
            overprovision_power_ratio(base, 0, study)
