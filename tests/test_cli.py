import csv
from pathlib import Path

import pytest

from slice_arena import paper_config_path
from slice_arena.cli import main

TINY_CFG = """
kappa = 1000
m_penalty = 150000
horizon = 20
seeds = 1:3

[datacenter dc1]
cpu = 32
memory = 50
storage = 5000
power_low = 100
power_high = 200

[datacenter dc2]
cpu = 32
memory = 50
storage = 5000
power_low = 100
power_high = 200

[slice s1]
priority = 2
cpu = 2
memory = 7
storage = 30
arrival_mean = 4
departure_prob = 0.3
profile_arrival_rate = 1
profile_service_rate = 2
delay_budget = 1.07
"""


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


class TestDimension:
    def test_prints_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["dimension", "--config", paper_config_path(),
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "slice_id,alpha,mu,t_max,vnf_count,total_delay" in stdout
        assert "s1,1,2,1.07,8,1.066667" in stdout
        lines = (out / "dimension.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_paper_output_bytes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["dimension", "--out", str(out)]) == 0
        rows = ("slice_id,alpha,mu,t_max,vnf_count,total_delay\n"
                "s1,1,2,1.07,8,1.066667\n"
                "s2,1,2,1.07,8,1.066667\n")
        assert capsys.readouterr().out == (
            "slice       alpha       mu    t_max  chains     delay\n"
            "s1          1.000    2.000    1.070       8    1.0667\n"
            "s2          1.000    2.000    1.070       8    1.0667\n"
            "\n" + rows)
        assert (out / "dimension.csv").read_bytes() == rows.encode()

    def test_comma_in_slice_id_stays_one_cell(self, tmp_path, capsys):
        config = tmp_path / "comma.cfg"
        text = Path(paper_config_path()).read_text()
        config.write_text(text.replace("[slice s1]", "[slice s1,x]"))
        out = tmp_path / "run"
        assert main(["dimension", "--config", str(config),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        with open(out / "dimension.csv", newline="") as fh:
            written = list(csv.reader(fh))
        printed = list(csv.reader(stdout.split("\n\n", 1)[1].splitlines()))
        assert written == printed
        assert [len(row) for row in written] == [6, 6, 6]
        assert written[1][0] == "s1,x"


class TestEval:
    def test_random_scenario_writes_csvs(self, tiny_cfg_path, tmp_path,
                                         capsys):
        out = tmp_path / "run"
        code = main(["eval", "--scenario", "random",
                     "--config", tiny_cfg_path, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "random: admission=" in stdout
        assert (out / "eval-random" / "metrics.csv").is_file()
        assert (out / "eval-random" / "summary.csv").is_file()

    def test_missing_checkpoint_is_runtime_error(self, tiny_cfg_path,
                                                 tmp_path, capsys):
        code = main(["eval", "--scenario", "ppo-clean",
                     "--config", tiny_cfg_path, "--out", str(tmp_path)])
        assert code == 2
        assert "train first" in capsys.readouterr().err

    def test_unknown_scenario_is_usage_error(self, tiny_cfg_path, tmp_path,
                                             capsys):
        code = main(["eval", "--scenario", "greedy",
                     "--config", tiny_cfg_path, "--out", str(tmp_path)])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_command(self, capsys):
        assert main([]) == 1

    def test_invalid_config_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG.replace("departure_prob = 0.3",
                                        "departure_prob = 1.3"))
        code = main(["eval", "--scenario", "random",
                     "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "departure_prob" in capsys.readouterr().err

    def test_negative_seed_rejected_before_running(self, tiny_cfg_path,
                                                   tmp_path, capsys):
        code = main(["compare", "--seed", "-1", "--config", tiny_cfg_path,
                     "--out", str(tmp_path)])
        assert code == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "compare").exists()

    def test_nonexistent_config_file(self, tmp_path, capsys):
        code = main(["eval", "--scenario", "random",
                     "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
        assert code == 2


class TestTrainAndSweep:
    def test_train_writes_both_checkpoints(self, tiny_cfg_path, tmp_path,
                                           capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", tiny_cfg_path, "--out", str(out),
                     "--steps", "2048"])
        assert code == 0
        assert (out / "model.ckpt").is_file()
        assert (out / "attacked_model.ckpt").is_file()

    def test_sweep_over_policy_free_scenarios(self, tiny_cfg_path, tmp_path,
                                              capsys):
        out = tmp_path / "run"
        code = main(["sweep", "--config", tiny_cfg_path, "--out", str(out),
                     "--scenarios", "random,optimal", "--arrivals", "2,4"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "random@a2" in stdout
        assert "optimal@a4" in stdout
        summary = (out / "sweep" / "summary.csv").read_text().splitlines()
        assert len(summary) == 5

    @pytest.mark.parametrize("arrival", ["nan", "inf", "0", "-1"])
    def test_sweep_rejects_bad_arrival(self, tiny_cfg_path, tmp_path, capsys,
                                       arrival):
        code = main(["sweep", "--config", tiny_cfg_path, "--out", str(tmp_path),
                     "--scenarios", "random", "--arrivals", f"2,{arrival}"])
        assert code == 1
        assert "arrival_sweep" in capsys.readouterr().err

    def test_sweep_rejects_empty_arrivals(self, tiny_cfg_path, tmp_path,
                                          capsys):
        code = main(["sweep", "--config", tiny_cfg_path, "--out", str(tmp_path),
                     "--scenarios", "random", "--arrivals", ","])
        assert code == 1
        assert "arrival_sweep" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_rejects_empty_scenarios(self, tiny_cfg_path, tmp_path,
                                           capsys):
        code = main(["sweep", "--config", tiny_cfg_path, "--out", str(tmp_path),
                     "--scenarios", ","])
        assert code == 1
        assert "no scenario" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_rejects_repeated_scenario(self, tiny_cfg_path, tmp_path,
                                             capsys):
        code = main(["sweep", "--config", tiny_cfg_path, "--out", str(tmp_path),
                     "--scenarios", "random,random", "--arrivals", "2"])
        assert code == 1
        assert "'random' is named twice" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("arrivals", ["2,2", "2,2.0000001"])
    def test_sweep_rejects_colliding_labels(self, tiny_cfg_path, tmp_path,
                                            capsys, arrivals):
        code = main(["sweep", "--config", tiny_cfg_path, "--out", str(tmp_path),
                     "--scenarios", "random", "--arrivals", arrivals])
        assert code == 1
        assert "share the sweep label a2" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_unknown_scenario(self, tiny_cfg_path, tmp_path, capsys):
        code = main(["sweep", "--config", tiny_cfg_path,
                     "--out", str(tmp_path), "--scenarios", "bogus"])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err
