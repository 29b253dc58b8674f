"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment in ("table1", "fig2", "fig3a", "fig3b", "fig4", "fig5"):
            assert experiment in output


class TestRun:
    def test_run_table1_small_scale(self, capsys):
        assert main(["run", "table1", "--scale", "0.25"]) == 0
        output = capsys.readouterr().out
        assert "Italy" in output
        assert "45772" in output

    def test_run_fig3a(self, capsys):
        assert main(["run", "fig3a", "--scale", "0.25"]) == 0
        assert "WORLD" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])


class TestBuildAndQuery:
    def test_build_db_then_query(self, tmp_path, capsys):
        db_dir = str(tmp_path / "culinary")
        assert main(["build-db", "--out", db_dir, "--scale", "0.25"]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "--db",
                    db_dir,
                    "SELECT region_code, COUNT(*) AS n FROM recipes "
                    "GROUP BY region_code ORDER BY n DESC LIMIT 3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "USA" in output


class TestAlias:
    def test_alias_exact_phrase(self, capsys):
        assert main(["alias", "3", "cloves", "garlic,", "minced"]) == 0
        output = capsys.readouterr().out
        assert "exact" in output
        assert "garlic" in output

    def test_alias_fuzzy_recovers_typo(self, capsys):
        assert main(["alias", "--fuzzy", "1", "tbsp", "oregeno"]) == 0
        output = capsys.readouterr().out
        assert "oregano" in output

    def test_alias_unrecognized(self, capsys):
        assert main(["alias", "moon", "dust"]) == 0
        output = capsys.readouterr().out
        assert "unrecognized" in output
        assert "(none)" in output


class TestNumericFlagValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table1", "--scale", "0"],
            ["run", "table1", "--scale", "-1"],
            ["run", "table1", "--scale", "nan"],
            ["run", "fig4", "--samples", "0"],
            ["run", "fig4", "--samples", "-5"],
            ["build-db", "--out", "x", "--scale", "0"],
            ["report", "--out", "x", "--scale", "-0.5"],
            ["report", "--out", "x", "--samples", "0"],
            ["serve", "--scale", "0"],
            ["serve", "--cache-size", "0"],
            ["serve", "--ttl", "-1"],
        ],
    )
    def test_rejected_at_argparse_level(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_non_numeric_scale_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--scale", "big"])
        assert "not a number" in capsys.readouterr().err

    def test_negative_queue_depth_rejected_before_building(self, capsys):
        from repro.cli import _build_parser

        parser = _build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["serve", "--queue-depth", "-1"])
        assert excinfo.value.code == 2
        assert "non-negative" in capsys.readouterr().err
        # 0 stays legal: no waiting room beyond --max-inflight.
        args = parser.parse_args(["serve", "--queue-depth", "0"])
        assert args.queue_depth == 0


class TestServeParser:
    def test_serve_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "serve", "--host", "0.0.0.0", "--port", "0",
                "--scale", "0.05", "--seed", "7",
                "--cache-size", "64", "--ttl", "30", "--stats",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.recipe_scale == pytest.approx(0.05)
        assert args.cache_size == 64
        assert args.ttl == pytest.approx(30.0)
        assert args.stats is True

    def test_serve_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.ttl is None
        assert args.no_warm is False
        assert args.preload is False
        assert args.cache_dir is None
        assert args.no_disk_cache is False

    def test_serve_preload_and_cache_flags(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--preload", "--cache-dir", "/tmp/artifacts"]
        )
        assert args.preload is True
        assert args.cache_dir == "/tmp/artifacts"


class TestWorkspaceCommandFlags:
    """fig5, build-db, similar, recommend and serve take no sampling
    flags, and no command takes ``--shard-size``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-db", "--out", "x", "--workers", "2"],
            ["similar", "garlic", "--workers", "2"],
            ["recommend", "--region", "ITA", "--workers", "2"],
            ["serve", "--workers", "2"],
            ["serve", "--shard-size", "123"],
            ["run", "fig4", "--shard-size", "100"],
            ["fig4", "--shard-size", "100"],
            ["fig5", "--shard-size", "100"],
            ["fig5", "--workers", "2"],
            ["fig5", "--samples", "100"],
            ["report", "--out", "x", "--shard-size", "100"],
        ],
    )
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServeStartup:
    def test_heap_frozen_after_preload_before_bind(
        self, monkeypatch, workspace
    ):
        import types

        from repro import cli
        from repro.service import QueryService

        calls = []
        monkeypatch.setattr(cli, "workspace_for", lambda config: workspace)
        monkeypatch.setattr(
            QueryService, "preload", lambda self: calls.append("preload")
        )
        # A stand-in gc module: the pytest process itself is never frozen.
        monkeypatch.setattr(
            cli,
            "gc",
            types.SimpleNamespace(
                collect=lambda: calls.append("collect"),
                freeze=lambda: calls.append("freeze"),
            ),
        )
        monkeypatch.setattr(
            cli,
            "_serve_async",
            lambda args, app, banner: calls.append("bind") or 0,
        )
        assert main(["serve", "--preload", "--port", "0"]) == 0
        assert calls == ["preload", "collect", "freeze", "bind"]


class TestRunConfigFlow:
    """The generated flags land in one RunConfig for every subcommand."""

    def test_run_flags_map_to_config(self):
        from repro.cli import _build_parser
        from repro.engine import config_from_args

        args = _build_parser().parse_args(
            [
                "run", "fig4", "--scale", "0.25", "--samples", "500",
                "--seed", "9", "--workers", "2",
                "--cache-dir", "/tmp/a", "--no-disk-cache",
            ]
        )
        config = config_from_args(args)
        assert config.recipe_scale == pytest.approx(0.25)
        assert config.n_samples == 500
        assert config.seed == 9
        assert config.workers == 2
        assert config.cache_dir == "/tmp/a"
        assert config.no_disk_cache is True
        assert config.disk_cache_enabled is False

    def test_long_aliases_accepted(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["run", "table1", "--recipe-scale", "0.5", "--n-samples", "900"]
        )
        assert args.recipe_scale == pytest.approx(0.5)
        assert args.n_samples == 900

    def test_paper_seed_samples_the_default_streams(self, tmp_path, capsys):
        # Naming the documented default seed is the same run as naming
        # none: same corpus, and the same Monte Carlo streams.
        import json

        from repro.corpus import DEFAULT_SEED

        base = ["fig4", "--scale", "0.25", "--samples", "200"]
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "seed.json"
        assert main([*base, "--z-out", str(implicit)]) == 0
        assert (
            main(
                [*base, "--seed", str(DEFAULT_SEED), "--z-out", str(explicit)]
            )
            == 0
        )
        assert explicit.read_bytes() == implicit.read_bytes()
        assert len(json.loads(implicit.read_text())["regions"]) == 22


class TestCacheCommand:
    def test_cache_parser(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["cache", "ls", "--cache-dir", "/tmp/x"]
        )
        assert args.command == "cache"
        assert args.action == "ls"
        assert args.cache_dir == "/tmp/x"

    def test_cache_action_required(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_cache_ls_info_clear_roundtrip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "artifacts")
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        assert "(empty)" in capsys.readouterr().out

        from repro.engine import ArtifactStore

        ArtifactStore(cache_dir).put("corpus", "f" * 64, {"x": 1})
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        listing = capsys.readouterr().out
        assert "corpus" in listing
        assert "1 artifact(s)" in listing

        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        import json

        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 1
        assert info["stages"] == ["corpus"]

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0


class TestReport:
    def test_report_writes_all_experiments(self, tmp_path, capsys):
        out = str(tmp_path / "report")
        assert (
            main(
                [
                    "report", "--out", out,
                    "--scale", "0.25", "--samples", "1500",
                ]
            )
            == 0
        )
        from pathlib import Path

        written = {p.name for p in Path(out).iterdir()}
        assert written == {
            "table1.txt", "fig2.txt", "fig3a.txt", "fig3b.txt",
            "fig4.txt", "fig5.txt",
        }
        fig4_text = (Path(out) / "fig4.txt").read_text()
        assert "uniform: 16" in fig4_text

    def test_report_csv_option(self, tmp_path, capsys):
        out = str(tmp_path / "csv_report")
        assert (
            main(
                [
                    "report", "--out", out, "--csv",
                    "--scale", "0.25", "--samples", "800",
                ]
            )
            == 0
        )
        from pathlib import Path

        names = {p.name for p in Path(out).iterdir()}
        assert "fig4_zscores.csv" in names
        assert "fig2_category_shares.csv" in names


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def restore_obs_state(self):
        yield
        from repro.obs import configure_logging, configure_tracing, get_tracer

        configure_logging(level="info", json_mode=False, stream=None)
        configure_tracing(False)
        get_tracer().reset()

    def test_obs_flags_parse_after_subcommand(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "run", "fig4", "--trace", "--trace-out", "t.json",
                "--log-json", "--log-level", "debug",
            ]
        )
        assert args.trace is True
        assert args.trace_out == "t.json"
        assert args.log_json is True
        assert args.log_level == "debug"

    def test_obs_flags_default_off(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["list"])
        assert args.trace is False
        assert args.trace_out is None
        assert args.log_json is False
        assert args.log_level == "info"

    def test_trace_prints_timing_tree(self, capsys):
        argv = [
            "run", "fig4", "--scale", "0.25", "--samples", "200", "--trace",
        ]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "# trace" in err
        assert "cli.run" in err
        assert "pairing.sample_moments" in err
        assert "ms" in err

    def test_trace_out_chrome_format(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        argv = [
            "run", "fig4", "--scale", "0.25", "--samples", "200",
            "--trace-out", str(out),
        ]
        assert main(argv) == 0
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert events
        assert all(event["ph"] == "X" for event in events)
        names = {event["name"] for event in events}
        assert "cli.run" in names
        assert "pairing.sample_moments" in names

    def test_trace_covers_pipeline_stages(self, tmp_path, capsys):
        """Acceptance: a fresh build traces every major pipeline stage."""
        import json

        out = tmp_path / "trace.jsonl"
        # A scale no other test uses, so the engine's memory tier cannot
        # hide the corpus/aliasing spans.
        argv = [
            "run", "fig4", "--scale", "0.2", "--samples", "200",
            "--trace-out", str(out), "--log-json",
        ]
        assert main(argv) == 0
        rows = [
            json.loads(line)
            for line in out.read_text().splitlines()
            if line
        ]
        names = {row["name"] for row in rows}
        assert {
            "corpus.generate",
            "aliasing.resolve_corpus",
            "workspace.build",
            "parallel.sweep",
            "montecarlo.shard",
            "pairing.sample_moments",
        } <= names
        # --log-json: every structured-log line on stderr is valid JSON.
        err = capsys.readouterr().err
        log_lines = [
            line
            for line in err.splitlines()
            if line.startswith("{")
        ]
        assert log_lines, "expected at least one JSON log line"
        for line in log_lines:
            row = json.loads(line)
            assert "event" in row
        assert any(
            json.loads(line)["event"] == "workspace.built"
            for line in log_lines
        )

    def test_trace_disabled_records_nothing(self, capsys):
        from repro.obs import get_tracer

        get_tracer().reset()
        assert main(["list"]) == 0
        assert get_tracer().finished_spans() == ()
        assert "# trace" not in capsys.readouterr().err


class TestServedCommands:
    """``similar`` and ``recommend`` print the service handlers' answers."""

    @pytest.fixture(scope="class")
    def service(self, workspace):
        from repro.service import QueryService

        return QueryService(workspace)

    def test_similar_ingredient(self, service, capsys):
        body = service.handle_similar({"ingredient": "garlic"})
        assert main(["similar", "garlic", "--scale", "0.25"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"# ingredients most similar to {body['ingredient']}",
            *(
                f"{match['shared_molecules']:4d}  {match['name']}"
                for match in body["matches"]
            ),
        ]

    def test_similar_cuisine(self, service, capsys):
        body = service.handle_similar({"cuisine": "ita"})
        assert main(["similar", "ita", "--cuisine", "--scale", "0.25"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "# cuisines nearest ITA",
            *(
                f"{match['region_code']:6s} {match['similarity']:.6f}"
                for match in body["matches"]
            ),
        ]

    def test_recommend(self, service, capsys):
        body = service.handle_recommend(
            {"region": "ITA", "count": 2, "seed": 7}
        )
        argv = [
            "recommend", "--region", "ITA", "--count", "2",
            "--proposal-seed", "7", "--scale", "0.25",
        ]
        assert main(argv) == 0
        expected = ["# 2 proposal(s) for ITA (seed 7)"]
        for number, proposal in enumerate(body["proposals"], 1):
            expected += [
                "",
                f"[{number}] N_s={proposal['pairing_score']:.3f} "
                f"style={proposal['style_score']:.3f} "
                f"novelty={proposal['novelty']:.2f}",
                "    " + ", ".join(proposal["ingredients"]),
            ]
        expected += ["", "# nearest cuisines"]
        expected += [
            f"{match['region_code']:6s} {match['similarity']:.6f}"
            for match in body["similar_cuisines"]
        ]
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["recommend", "--region", "ITA", "--size", "1"],
            ["recommend", "--region", "ITA", "--size", "900"],
            ["recommend", "--region", "ITA", "--proposal-seed", "-1"],
            ["recommend", "--region", "ITA", "--count", "11"],
            ["similar", "garlic", "-k", "0"],
            ["similar", "garlic", "-k", "51"],
        ],
    )
    def test_out_of_range_flags_exit_2(self, argv, capsys):
        assert main([*argv, "--scale", "0.25"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
