import dataclasses
import math
import textwrap

import pytest

from slice_arena import (ConfigParseError, ConfigValidationError,
                         ScenarioConfig, load_config, paper_config_path,
                         parse_config)

from conftest import make_dc, make_slice

MINIMAL = textwrap.dedent("""\
    [datacenter d]
    cpu = 4
    memory = 8
    storage = 100
    power_low = 10
    power_high = 20

    [slice a]
    priority = 1
    cpu = 1
    memory = 2
    storage = 5
    arrival_mean = 1.5
    departure_prob = 0.5
    profile_arrival_rate = 1
    profile_service_rate = 2
    delay_budget = 1.07
""")

# a non-finite value for each key where one would parse, and its line
NON_FINITE = {
    "kappa": ("kappa = nan\n" + MINIMAL, 1),
    "m_penalty": ("m_penalty = inf\n" + MINIMAL, 1),
    "priority": (MINIMAL.replace("priority = 1", "priority = nan"), 9),
    "power_low": (MINIMAL.replace("power_low = 10", "power_low = -inf"), 5),
    "power_high": (MINIMAL.replace("power_high = 20", "power_high = inf"), 6),
}

class TestPaperConfig:
    def test_bundled_scenario_values(self, paper_cfg):
        assert len(paper_cfg.datacenters) == 2
        for dc in paper_cfg.datacenters:
            assert dc.capacity.as_tuple() == (32.0, 50.0, 5000.0)
            assert dc.power_range == (100.0, 200.0)
        s1, s2 = paper_cfg.slices
        assert s1.demand.as_tuple() == (2.0, 7.0, 30.0)
        assert s2.demand.as_tuple() == (3.0, 5.0, 50.0)
        assert s1.departure_prob == s2.departure_prob == 0.3
        assert s1.arrival_mean == s2.arrival_mean == 6.0
        # concurrency caps come from the dimensioning step
        assert s1.chain_capacity == s2.chain_capacity == 8
        assert paper_cfg.seeds == tuple(range(101, 121))
        assert paper_cfg.arrival_sweep == (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        assert paper_cfg.horizon == 200

    def test_load_config_reads_file(self):
        assert load_config(paper_config_path()) is not None


class TestParsing:
    def test_minimal_round_trip(self):
        cfg = parse_config(MINIMAL)
        assert cfg.datacenters[0].dc_id == "d"
        assert cfg.slices[0].slice_id == "a"
        # global defaults fill in
        assert cfg.kappa == 100.0
        assert cfg.m_penalty == 1000.0
        assert cfg.horizon == 200
        assert cfg.power_mode == "utilization"
        assert cfg.seeds == tuple(range(1, 21))

    def test_parse_is_deterministic(self):
        assert parse_config(MINIMAL) == parse_config(MINIMAL)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# leading comment\n\nkappa = 5 # trailing\n" + MINIMAL)
        assert cfg.kappa == 5.0

    def test_seed_list_and_range(self):
        assert parse_config("seeds = 3,1,2\n" + MINIMAL).seeds == (3, 1, 2)
        assert parse_config("seeds = 4:6\n" + MINIMAL).seeds == (4, 5, 6)

    def test_arrival_sweep_values(self):
        cfg = parse_config("arrival_sweep = 1, 2.5\n" + MINIMAL)
        assert cfg.arrival_sweep == (1.0, 2.5)

    def test_explicit_chain_capacity_wins(self):
        cfg = parse_config(MINIMAL + "chain_capacity = 3\n")
        assert cfg.slices[0].chain_capacity == 3

    def test_unknown_global_key_has_line_number(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("bogus = 1\n" + MINIMAL)
        assert err.value.line == 1
        assert "bogus" in str(err.value)

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config(MINIMAL + "towers = 9\n")
        assert "towers" in str(err.value)

    def test_bad_section_header(self):
        with pytest.raises(ConfigParseError):
            parse_config("[warehouse w1]\n" + MINIMAL)
        with pytest.raises(ConfigParseError):
            parse_config("[datacenter oops\n" + MINIMAL)

    def test_missing_equals(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("kappa 5\n" + MINIMAL)
        assert err.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(ConfigParseError):
            parse_config("kappa = 1\nkappa = 2\n" + MINIMAL)

    def test_non_numeric_value(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config(MINIMAL.replace("cpu = 4", "cpu = lots"))
        assert "lots" in str(err.value)

    @pytest.mark.parametrize("key", sorted(NON_FINITE))
    def test_non_finite_value_has_line_number(self, key):
        text, line = NON_FINITE[key]
        with pytest.raises(ConfigParseError) as err:
            parse_config(text)
        assert err.value.line == line
        assert "finite" in str(err.value)


class TestValidation:
    def test_empty_file(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config("")
        assert "datacenters" in str(err.value)

    def test_slice_required(self):
        head = MINIMAL.split("[slice")[0]
        with pytest.raises(ConfigValidationError) as err:
            parse_config(head)
        assert "slices" in str(err.value)

    def test_departure_prob_out_of_range_names_field(self):
        bad = MINIMAL.replace("departure_prob = 0.5", "departure_prob = 1.3")
        with pytest.raises(ConfigValidationError) as err:
            parse_config(bad)
        assert "departure_prob" in str(err.value)

    def test_missing_required_key_named(self):
        bad = MINIMAL.replace("priority = 1\n", "")
        with pytest.raises(ConfigValidationError) as err:
            parse_config(bad)
        assert "priority" in str(err.value)

    def test_duplicate_ids(self):
        dup = MINIMAL + "\n" + MINIMAL.split("\n\n")[1]  # second [slice a]
        with pytest.raises(ConfigValidationError):
            parse_config(dup)

    @pytest.mark.parametrize("seeds", ["-2:1", "1, 1, 2"])
    def test_negative_or_repeated_seeds_named(self, seeds):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(f"seeds = {seeds}\n" + MINIMAL)
        assert err.value.field_name == "seeds"

    def test_bad_power_mode(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config("power_mode = solar\n" + MINIMAL)
        assert "power_mode" in str(err.value)

    def test_non_finite_arrival_sweep_named(self):
        cfg = ScenarioConfig(datacenters=(make_dc(),), slices=(make_slice(),))
        with pytest.raises(ConfigValidationError) as err:
            dataclasses.replace(cfg, arrival_sweep=(2.0, math.nan))
        assert err.value.field_name == "arrival_sweep"

    def test_empty_arrival_sweep_named(self):
        cfg = ScenarioConfig(datacenters=(make_dc(),), slices=(make_slice(),))
        with pytest.raises(ConfigValidationError) as err:
            dataclasses.replace(cfg, arrival_sweep=())
        assert err.value.field_name == "arrival_sweep"

    def test_scenario_config_direct_validation(self):
        with pytest.raises(ConfigValidationError):
            ScenarioConfig(datacenters=(make_dc(),), slices=(make_slice(),),
                           kappa=-1.0)
        with pytest.raises(ConfigValidationError):
            ScenarioConfig(datacenters=(make_dc(),), slices=(make_slice(),),
                           horizon=0)
        with pytest.raises(ConfigValidationError):
            ScenarioConfig(datacenters=(make_dc(),),
                           slices=(make_slice("x"), make_slice("x")))
