"""Config plumbing, experiment orchestration, and plot-data export."""

import csv
import json

import pytest

from adaptive_shadows.cli import (
    EXPERIMENT_IDS,
    EXPERIMENTS,
    ExperimentSpec,
    build_spec,
    config_hash,
    emit_plot_data,
    load_config,
    main,
    run,
)
from adaptive_shadows.errors import ConfigError, MalformedCsv


def _spec(tmp_path, experiment="threshold", seed=0, trials=2, config=None,
          environ=None, threads=1):
    return build_spec(experiment, seed=seed, trials=trials,
                      out=str(tmp_path / "out"), config_path=config,
                      threads=threads, environ=environ or {})


class TestLoadConfig:
    def test_parses_comments_and_blanks(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(
            "# full line comment\n"
            "\n"
            "epsilon = 0.25   # trailing comment\n"
            "M=50\n"
        )
        assert load_config(path) == {"epsilon": "0.25", "M": "50"}

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("epsilon 0.25\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_value(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("epsilon =\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.conf")


class TestBuildSpec:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            _spec(tmp_path, experiment="warp-drive")

    def test_bad_counts(self, tmp_path):
        with pytest.raises(ConfigError):
            _spec(tmp_path, trials=0)
        with pytest.raises(ConfigError):
            _spec(tmp_path, threads=0)

    def test_defaults_are_applied(self, tmp_path):
        spec = _spec(tmp_path)
        assert spec.cfg.M == int(EXPERIMENTS["threshold"].defaults["M"])
        assert spec.trials == 2
        assert (tmp_path / "out").is_dir()

    def test_config_file_overrides_defaults(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("epsilon=0.5\nM=77\n")
        spec = _spec(tmp_path, config=conf)
        assert spec.cfg.epsilon == 0.5
        assert spec.cfg.M == 77

    def test_env_overrides_config_file(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("epsilon=0.5\n")
        spec = _spec(tmp_path, config=conf, environ={"ADSH_EPSILON": "0.7"})
        assert spec.cfg.epsilon == 0.7

    def test_unrecognized_key(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("warp=9\n")
        with pytest.raises(ConfigError):
            _spec(tmp_path, config=conf)

    def test_uncastable_value(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("N=lots\n")
        with pytest.raises(ConfigError):
            _spec(tmp_path, config=conf)

    def test_extras_are_kept_verbatim(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("tolerance=0.2\n")
        spec = _spec(tmp_path, experiment="pmw", config=conf)
        assert spec.extras["tolerance"] == "0.2"

    def test_extra_key_the_experiment_does_not_read(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("tolerance=0.2\n")
        with pytest.raises(ConfigError):
            _spec(tmp_path, experiment="dp-median", config=conf)

    def test_env_sets_only_the_keys_the_experiment_reads(self, tmp_path):
        environ = {"ADSH_TOLERANCE": "0.2", "ADSH_GAMMA": "0.01"}
        assert _spec(tmp_path, experiment="threshold",
                     environ=environ).extras == {}
        assert _spec(tmp_path, experiment="dp-median",
                     environ=environ).extras == {"gamma": "0.01"}


class TestConfigHash:
    def test_stable_and_seed_free(self, tmp_path):
        a = _spec(tmp_path, seed=0)
        b = _spec(tmp_path, seed=99)
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 10

    def test_sensitive_to_parameters(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("epsilon=0.31\n")
        assert config_hash(_spec(tmp_path)) != config_hash(
            _spec(tmp_path, config=conf))


class TestRun:
    def test_threshold_writes_both_artifacts(self, tmp_path):
        spec = _spec(tmp_path, trials=2)
        assert run(spec) == 0
        csv_path = tmp_path / "out" / "threshold.csv"
        summary_path = tmp_path / "out" / "threshold_summary.json"
        assert csv_path.exists() and summary_path.exists()

        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert row["seed"] == "0"
            assert row["build"]
            assert row["config_hash"] == config_hash(spec)

        summary = json.loads(summary_path.read_text())
        assert summary["pass"] is True
        assert summary["experiment"] == "threshold"
        assert summary["metrics"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a = build_spec("threshold", seed=3, trials=2, out=str(tmp_path / "a"),
                       config_path=None, threads=1, environ={})
        b = build_spec("threshold", seed=3, trials=2, out=str(tmp_path / "b"),
                       config_path=None, threads=1, environ={})
        run(a)
        run(b)
        assert ((tmp_path / "a" / "threshold.csv").read_bytes()
                == (tmp_path / "b" / "threshold.csv").read_bytes())
        assert ((tmp_path / "a" / "threshold_summary.json").read_bytes()
                == (tmp_path / "b" / "threshold_summary.json").read_bytes())

    def test_thread_count_does_not_change_results(self, tmp_path):
        a = build_spec("threshold", seed=5, trials=4, out=str(tmp_path / "a"),
                       config_path=None, threads=1, environ={})
        b = build_spec("threshold", seed=5, trials=4, out=str(tmp_path / "b"),
                       config_path=None, threads=3, environ={})
        run(a)
        run(b)
        assert ((tmp_path / "a" / "threshold.csv").read_bytes()
                == (tmp_path / "b" / "threshold.csv").read_bytes())


class TestMain:
    def test_happy_path_exit_zero(self, tmp_path):
        code = main(["threshold", "--trials", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_unknown_subcommand_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["warp-drive", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_config_error_exit_two(self, tmp_path):
        code = main(["threshold", "--trials", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("experiment, line", [
        ("dp-median", "tolerance=0.000001"),
        ("subspace", "R=2"),
    ])
    def test_key_the_experiment_does_not_read_exits_two(self, tmp_path,
                                                        experiment, line):
        conf = tmp_path / "exp.conf"
        conf.write_text(line + "\n")
        code = main([experiment, "--trials", "2", "--config", str(conf),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out" / f"{experiment}_summary.json").exists()

    def test_threshold_miss_exits_one(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("tolerance=0.000001\nM=50\n")
        code = main(["pmw", "--trials", "1", "--config", str(conf),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        summary = json.loads(
            (tmp_path / "out" / "pmw_summary.json").read_text())
        assert summary["pass"] is False


class TestEmitPlotData:
    def test_attack_table_reduces_to_plot_columns(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("m_grid=400,6400\n")
        spec = _spec(tmp_path, experiment="attack", trials=2, config=conf)
        run(spec)
        out_csv = tmp_path / "plot.csv"
        rows = emit_plot_data(tmp_path / "out" / "attack.csv", out_csv)
        assert len(rows) == 4  # two grid points, two modes
        assert set(rows[0]) == {"M", "mode", "mean", "std"}
        with open(out_csv, newline="") as fh:
            assert csv.DictReader(fh).fieldnames == ["M", "mode", "mean", "std"]

    def test_long_tables_pass_through(self, tmp_path):
        src = tmp_path / "long.csv"
        src.write_text("x,y\n1,2\n3,4\n")
        rows = emit_plot_data(src)
        assert rows == [{"x": "1", "y": "2"}, {"x": "3", "y": "4"}]

    def test_varying_metadata_columns_are_kept(self, tmp_path):
        src = tmp_path / "multi.csv"
        src.write_text("seed,value\n0,1.0\n1,2.0\n")
        rows = emit_plot_data(src)
        assert set(rows[0]) == {"seed", "value"}

    def test_malformed_inputs(self, tmp_path):
        with pytest.raises(MalformedCsv):
            emit_plot_data(tmp_path / "missing.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(MalformedCsv):
            emit_plot_data(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("a,b\n")
        with pytest.raises(MalformedCsv):
            emit_plot_data(header_only)


class TestExperimentCatalog:
    def test_every_id_has_defaults(self):
        assert all(EXPERIMENTS[exp_id].defaults for exp_id in EXPERIMENT_IDS)

    def test_spec_fields(self, tmp_path):
        spec = _spec(tmp_path)
        assert isinstance(spec, ExperimentSpec)
        assert spec.experiment == "threshold"
        assert spec.threads == 1
