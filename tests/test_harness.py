import ast
import csv
import inspect
import json
import math

import numpy as np
import pytest

from finslerlab.benchmarks import CAT_ENTROPY
from finslerlab.cli import main as cli_main
from finslerlab.config import (
    apply_override,
    default_config,
    integrator_from_config,
    merge_config,
    parse_set_option,
    section_from_config,
    validate_config,
)
from finslerlab.errors import ConfigInvalid, EmptyInput, IoFailure, UnknownScenario
from finslerlab import scenarios
from finslerlab.reporting import (
    Check,
    RunReport,
    at_least,
    at_most,
    export_report,
    holds,
    jsonify,
    render_section_plot,
)
from finslerlab.scenarios import SCENARIO_NAMES, run_scenario, scenario_defaults


class TestConfig:
    def test_defaults_validate(self):
        from dataclasses import asdict

        from finslerlab.flow import IntegratorConfig
        from finslerlab.sections import SectionSpec

        cfg = default_config()
        validate_config(cfg)
        assert integrator_from_config(cfg).method == "DOP853"
        assert section_from_config(cfg).kind == "equator_birkhoff"
        # the blocks are their objects' fields and defaults
        assert cfg["integrator"] == asdict(IntegratorConfig())
        assert cfg["section"] == SectionSpec().to_spec()
        assert integrator_from_config(cfg) == IntegratorConfig()
        assert section_from_config(cfg) == SectionSpec()

    def test_scenario_defaults_all_validate(self):
        for name in SCENARIO_NAMES:
            validate_config(scenario_defaults(name))

    def test_unknown_top_level_key_has_path(self):
        with pytest.raises(ConfigInvalid) as info:
            validate_config({"profil": {}})
        assert "profil" in str(info.value)

    def test_bad_nested_value_has_dotted_path(self):
        cfg = default_config()
        cfg["integrator"]["rel_tol"] = -1.0
        with pytest.raises(ConfigInvalid) as info:
            validate_config(cfg)
        assert "integrator.rel_tol" in str(info.value)

    def test_bad_cutoff_ordering_rejected(self):
        cfg = default_config()
        cfg["metric"] = {"kind": "katok", "a0": 0.8, "a1": 0.3, "b": 1.6, "alpha": 0.01}
        with pytest.raises(ConfigInvalid) as info:
            validate_config(cfg)
        assert "metric.a0" in str(info.value)

    def test_unknown_nested_key_has_dotted_path(self):
        for block, key in [("integrator", "rel_tl"), ("section", "scan_dt"), ("metric", "alpa"),
                           ("profile", "length"), ("scenario", "sed")]:
            cfg = default_config()
            cfg[block][key] = 1e-6
            with pytest.raises(ConfigInvalid) as info:
                validate_config(cfg)
            assert info.value.path == f"{block}.{key}"
        cfg = default_config()
        cfg["analysis"]["anything"] = {"goes": 1}  # analysis blocks are per-command
        validate_config(cfg)

    def test_nonpositive_x2_cap_rejected(self):
        for cap in (-5.0, 0.0):
            cfg = default_config()
            cfg["integrator"]["x2_cap"] = cap
            with pytest.raises(ConfigInvalid) as info:
                validate_config(cfg)
            assert info.value.path == "integrator.x2_cap"
        cfg = default_config()
        cfg["integrator"]["x2_cap"] = None  # no pole cap
        validate_config(cfg)
        cfg["integrator"]["invariant_drift_tol"] = 0.0
        with pytest.raises(ConfigInvalid) as info:
            validate_config(cfg)
        assert info.value.path == "integrator.invariant_drift_tol"
        # programmatic misuse keeps raising ValueError
        from finslerlab.flow import IntegratorConfig

        for bad in (dict(x2_cap=-5.0), dict(invariant_drift_tol=0.0)):
            with pytest.raises(ValueError):
                IntegratorConfig(**bad)

    def test_non_numeric_value_rejected(self):
        for block, key in [("integrator", "rel_tol"), ("integrator", "checkpoint_dt"),
                           ("section", "max_return_time"), ("section", "x2_star")]:
            cfg = default_config()
            cfg[block][key] = "abc"
            with pytest.raises(ConfigInvalid) as info:
                validate_config(cfg)
            assert info.value.path == f"{block}.{key}"
        cfg = default_config()
        cfg["metric"] = {"kind": "katok", "a0": "abc", "a1": 1.3, "b": 1.6, "alpha": 0.01}
        with pytest.raises(ConfigInvalid):
            validate_config(cfg)

    def test_replaced_block_reports_missing_key(self):
        # a --set of a whole block drops the scenario's other keys of that block
        with pytest.raises(ConfigInvalid) as info:
            run_scenario("benchmark-maps", overrides=[("analysis.cat", {"eps": [0.3]})], write=False)
        assert info.value.path == "analysis.cat.T_list"
        with pytest.raises(ConfigInvalid) as info:
            run_scenario("katok-sphere", overrides=[("metric", {"kind": "katok", "a0": 0.3})], write=False)
        assert info.value.path == "metric.a1"

    def test_merge_and_override(self):
        cfg = default_config()
        merged = merge_config(cfg, {"integrator": {"rel_tol": 1e-9}})
        assert merged["integrator"]["rel_tol"] == 1e-9
        assert merged["integrator"]["method"] == "DOP853"  # untouched sibling
        overridden = apply_override(cfg, "metric.alpha", 0.01)
        assert overridden["metric"]["alpha"] == 0.01
        assert cfg["metric"]["alpha"] != 0.01  # original untouched

    def test_parse_set_option(self):
        assert parse_set_option("a.b=1e-3") == ("a.b", 1e-3)
        assert parse_set_option("a.b=text") == ("a.b", "text")
        assert parse_set_option('a.b=[1, 2]') == ("a.b", [1, 2])
        with pytest.raises(ConfigInvalid):
            parse_set_option("no_equals_sign")


class TestReporting:
    def _report(self):
        return RunReport(
            scenario="demo",
            seed=3,
            config={"scenario": {"name": "demo", "seed": 3}},
            checks=[
                Check("a", True, 0.5, 1.0, "fine"),
                Check("b", True, np.float64(0.25), None),
            ],
            artifacts=["x.csv"],
            timings={"total": 1.0},
        )

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        path = export_report(report, tmp_path / "r.json", "json")
        loaded = json.loads(path.read_text())
        assert loaded == report.to_dict()
        assert loaded["overall_pass"] is True
        assert "timings" not in loaded  # wall clock stays out of the payload

    def test_csv_summary_one_row_per_check(self, tmp_path):
        report = self._report()
        path = export_report(report, tmp_path / "r.csv", "csv-summary")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(report.checks)
        assert lines[1].startswith("a,True,0.5,1.0")

    def test_csv_summary_quotes_details_with_commas(self, tmp_path):
        details = ["bins [32, 128], verdicts [True, True]", "lipschitz ['0.1', '0.2']", 'say "x", then y', ""]
        report = RunReport(
            scenario="demo",
            seed=0,
            config={},
            checks=[Check(f"c{i}", True, 1.0, None, d) for i, d in enumerate(details)],
        )
        path = export_report(report, tmp_path / "r.csv", "csv-summary")
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "passed", "value", "tolerance", "detail"]
        assert [len(r) for r in rows] == [5] * (1 + len(details))
        assert [r[4] for r in rows[1:]] == details
        # a detail without a comma keeps the plain layout
        assert path.read_text().splitlines()[-1] == "c3,True,1.0,,"

    def test_scenario_checks_csv_parses_to_five_fields(self, tmp_path):
        report = run_scenario("appendix-smooth-division", seed=0, out_root=tmp_path)
        path = tmp_path / "appendix-smooth-division" / "latest" / "checks.csv"
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(r) == 5 for r in rows)
        assert [r[4] for r in rows[1:]] == [c.detail for c in report.checks]
        assert any("," in c.detail for c in report.checks)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(IoFailure):
            export_report(self._report(), tmp_path / "r.bin", "parquet")

    def test_jsonify_handles_numpy_and_nonfinite(self):
        out = jsonify({"a": np.float64(1.5), "b": np.array([1, 2]), "c": math.nan, "d": math.inf})
        assert out == {"a": 1.5, "b": [1, 2], "c": "nan", "d": "inf"}

    def test_check_lookup(self):
        report = self._report()
        assert report.check("a").value == 0.5
        with pytest.raises(KeyError):
            report.check("missing")


class TestCheckConstructors:
    def test_bound_is_inclusive(self):
        assert at_most("x", 1e-6, 1e-6).passed
        assert at_least("x", 5.0, 5.0).passed
        assert not at_most("x", np.nextafter(1e-6, 1.0), 1e-6).passed
        assert not at_least("x", np.nextafter(5.0, 0.0), 5.0).passed

    def test_stores_plain_values(self):
        # a numpy value would print as np.float64(...) in the scenario verdicts
        for check in (at_most("x", np.float64(0.5), 1.0), at_least("x", np.float64(0.5), 1.0)):
            assert type(check.value) is float and type(check.passed) is bool
            assert repr(check.value) == "0.5"

    def test_nan_fails_both_ways(self):
        assert not at_most("x", math.nan, 1.0).passed
        assert not at_least("x", math.nan, 1.0).passed
        assert not at_most("x", 0.0, math.nan).passed

    def test_infinities(self):
        assert not at_most("x", math.inf, math.pi).passed
        assert at_most("x", -math.inf, 0.0).passed
        assert at_least("x", math.inf, 5.0).passed
        assert not at_least("x", -math.inf, 5.0).passed
        assert at_most("x", math.inf, math.inf).passed

    def test_fields_are_the_stated_ones(self):
        assert at_most("a", 0.5, 1.0, "d") == Check("a", True, 0.5, 1.0, "d")
        assert at_least("b", 4.0, 5.0) == Check("b", False, 4.0, 5.0, "")
        assert holds("c", True, -0.01, 0.02) == Check("c", True, -0.01, 0.02, "")
        assert holds("d", False, 1.0).tolerance is None

    def test_scenarios_build_no_check_directly(self):
        tree = ast.parse(inspect.getsource(scenarios))
        direct = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Check"
        ]
        assert direct == []


class TestSectionPlot:
    def test_deterministic_bytes(self):
        pts = np.array([[0.1, 0.2], [1.0, 1.5], [4.0, 3.0]])
        a = render_section_plot([pts], title="t")
        b = render_section_plot([pts.copy()], title="t")
        assert a == b
        assert a.startswith("<svg")
        assert a.count("<circle") == 3

    def test_groups_get_distinct_colors(self):
        g1 = np.array([[0.1, 0.2]])
        g2 = np.array([[0.4, 0.8]])
        svg = render_section_plot([g1, g2])
        assert "#1f77b4" in svg and "#d62728" in svg

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            render_section_plot([])
        with pytest.raises(EmptyInput):
            render_section_plot([np.empty((0, 2))])


class TestScenarioRunner:
    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            run_scenario("nonexistent", write=False)

    def test_invalid_override_path_reported(self):
        with pytest.raises(ConfigInvalid) as info:
            run_scenario(
                "round-sphere-baseline",
                overrides=[("integrator.rel_tol", -5.0)],
                write=False,
            )
        assert "integrator.rel_tol" in str(info.value)

    def test_round_sphere_scenario_passes_and_echoes_override(self, tmp_path):
        report = run_scenario(
            "round-sphere-baseline",
            seed=5,
            overrides=[("analysis.periodicity_samples", 6), ("analysis.grid", 3)],
            out_root=tmp_path,
            write=True,
        )
        assert report.overall_pass
        assert report.config["analysis"]["periodicity_samples"] == 6
        assert report.seed == 5
        run_dir = tmp_path / "round-sphere-baseline" / "latest"
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["config"]["analysis"]["grid"] == 3
        assert set(payload["artifacts"]) == set(report.artifacts)
        # the artifact writes are timed as their own stage, in the sidecar only
        assert "artifacts" in json.loads((run_dir / "timings.json").read_text())
        assert "artifacts" in report.timings and "timings" not in payload
        assert (run_dir / "checks.csv").exists()
        for name in report.artifacts:
            assert (run_dir / name).exists()

    def test_failed_run_leaves_no_run_directory(self, tmp_path):
        # katok-torus runs the reversibilized metric and rejects the other at once
        with pytest.raises(ConfigInvalid):
            run_scenario("katok-torus", overrides=[("metric.reversible", False)], out_root=tmp_path, write=True)
        assert list(tmp_path.iterdir()) == []

    def test_alpha_override_rerrun_convexity_gate(self):
        from finslerlab.errors import ConvexityLost

        with pytest.raises(ConvexityLost):
            run_scenario(
                "katok-sphere",
                overrides=[("metric.alpha", 0.5)],
                write=False,
            )

    def test_report_checks_enumerated_once(self, tmp_path):
        report = run_scenario(
            "appendix-smooth-division", seed=1, out_root=tmp_path, write=True
        )
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        assert report.overall_pass == all(c.passed for c in report.checks)

    def test_katok_sphere_writes_report(self, tmp_path):
        # writing artifacts runs the iterate plot, whose seeds must avoid the
        # polar direction u = pi/2: that orbit leaves the chart strip
        report = run_scenario(
            "katok-sphere",
            seed=0,
            overrides=[
                ("analysis.entropy.cloud", 60),
                ("analysis.entropy.T_list", [2, 4, 6]),
                ("analysis.axiom_samples", 50),
                ("analysis.iterate_plot.iterates", 10),
            ],
            out_root=tmp_path,
            write=True,
        )
        run_dir = tmp_path / "katok-sphere" / "latest"
        assert (run_dir / "report.json").exists()
        assert (run_dir / "iterates.svg").read_text().startswith("<svg")
        assert "iterates.svg" in report.artifacts

    def test_conservation_battery_judges_drift_itself(self, h0_sphere):
        # an integrator drift bound far below the checks' 1e-8 must not abort
        # the battery: the checks state the bound and give the verdict
        from finslerlab.flow import IntegratorConfig
        from finslerlab.scenarios import _conservation_checks

        cfg = IntegratorConfig(method="DOP853", rel_tol=1e-12, abs_tol=1e-12, invariant_drift_tol=1e-300)
        h_check, xi1_check = _conservation_checks(h0_sphere, [np.array([0.0, 0.0, 0.6, 0.8])], cfg)
        assert h_check.tolerance == xi1_check.tolerance == 1e-8
        assert 0.0 < h_check.value <= 1e-8 and h_check.passed
        assert xi1_check.passed

    def test_determinism_two_runs_byte_identical(self, tmp_path):
        a = run_scenario("appendix-smooth-division", seed=11, out_root=tmp_path / "a")
        b = run_scenario("appendix-smooth-division", seed=11, out_root=tmp_path / "b")
        pa = (tmp_path / "a" / "appendix-smooth-division" / "latest" / "report.json").read_bytes()
        pb = (tmp_path / "b" / "appendix-smooth-division" / "latest" / "report.json").read_bytes()
        assert pa == pb
        assert a.overall_pass and b.overall_pass


TORUS = 'profile={"kind":"spliced","L":4.0,"eps":0.25}'
KATOK_REVERSIBLE = 'metric={"kind":"katok","a0":0.3,"a1":1.3,"b":1.6,"alpha":0.0309,"reversible":true}'


class TestCli:
    def test_validate_command(self, tmp_path, capsys):
        for i, extra in enumerate([[], ["--set", KATOK_REVERSIBLE]]):
            out = tmp_path / str(i)
            rc = cli_main(["validate", "--out", str(out), "--seed", "2", *extra])
            assert rc == 0
            payload = json.loads((out / "validate.json").read_text())
            assert payload["passed"] is True
            assert payload["evenness_max_err"] <= 1e-12  # both metrics are reversible

    def test_simulate_command_csv_schema(self, tmp_path):
        rc = cli_main(
            ["simulate", "--out", str(tmp_path), "--set", "analysis.simulate.T=5.0",
             "--set", "analysis.simulate.theta=0.3"]
        )
        assert rc == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,xi1,xi2,lift_x1,lift_x2,H,H1"
        assert len(lines) == 52

    def test_rotation_command(self, tmp_path):
        rc = cli_main(
            ["rotation", "--out", str(tmp_path), "--set", "analysis.rotation.n=12"]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "rotation.json").read_text())
        assert payload["n"] == 12

    def test_entropy_command(self, tmp_path):
        cases = [
            ("identity", [], 0.0, 0.02),
            ("rotation", [], 0.0, 0.02),
            ("doubling", [], math.log(2.0), 0.15 * math.log(2.0)),
            # a 400-point cloud undersamples the 2-torus: the scenario's 10%
            # holds at 2000 points only
            ("cat", [], CAT_ENTROPY, 0.2 * CAT_ENTROPY),
            ("flow", ["--set", TORUS, "--set", "analysis.entropy.horizon=10",
                      "--set", "analysis.entropy.T_list=[0,5,10]"], 0.0, 0.05),
        ]
        for system, extra, exact, tol in cases:
            rc = cli_main(
                ["entropy", "--out", str(tmp_path), "--set", f"analysis.entropy.system={system}",
                 "--set", "analysis.entropy.cloud=400", "--seed", "4", *extra]
            )
            assert rc == 0
            payload = json.loads((tmp_path / f"entropy_{system}.json").read_text())
            assert abs(payload["value"] - exact) <= tol, system

    def test_graphs_command_requires_torus(self, tmp_path, capsys):
        rc = cli_main(["graphs", "--out", str(tmp_path)])
        assert rc == 3  # round sphere has no periodic base
        err = capsys.readouterr().err
        assert "periodic" in err

    def test_graphs_command_on_torus(self, tmp_path):
        rc = cli_main(
            ["graphs", "--out", str(tmp_path),
             "--set", 'profile={"kind":"spliced","L":4.0,"eps":0.25}',
             "--set", "analysis.graphs.side=96"]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "graphs.json").read_text())
        assert payload["reports"]["32"]["is_graph"] is True

    def test_section_command(self, tmp_path):
        rc = cli_main(
            ["section", "--out", str(tmp_path), "--set", "analysis.section.grid_s=3",
             "--set", "analysis.section.grid_u=3",
             "--set", "integrator.rel_tol=1e-10", "--set", "integrator.abs_tol=1e-10"]
        )
        assert rc == 0
        lines = (tmp_path / "return_map.csv").read_text().splitlines()
        assert lines[0] == "s,u,s_image,u_image,tau,lift_ds,status"
        assert len(lines) == 10
        assert (tmp_path / "section.svg").read_text().startswith("<svg")

    def test_tube_command(self, tmp_path):
        rc = cli_main(
            ["tube", "--out", str(tmp_path), "--seed", "3",
             "--set", 'profile={"kind":"spliced","L":4.0,"eps":0.25}',
             "--set", 'metric={"kind":"katok","a0":0.3,"a1":1.3,"b":1.6,'
                      '"alpha":0.030901699437494745,"reversible":true}',
             "--set", "analysis.tube.orbits=6",
             "--set", "analysis.tube.ensemble_time=5.0",
             "--set", "analysis.tube.long_time=20.0"]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "tube.json").read_text())
        assert len(payload["min_boundary_dists"]) == 6
        assert all(d > 0 for (_, _, d) in payload["witness_distances"])

    def test_unknown_scenario_via_cli(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "not-a-scenario"])

    def test_invalid_config_exit_code(self, tmp_path):
        rc = cli_main(["validate", "--out", str(tmp_path), "--set", "integrator.rel_tol=-1"])
        assert rc == 3
        rc = cli_main(["entropy", "--out", str(tmp_path), "--set", "analysis.entropy.system=bogus"])
        assert rc == 3

    @pytest.mark.parametrize(
        "scenario, option, path",
        [
            ("katok-sphere", "metric.kind=rotational", "metric.kind"),
            ("katok-sphere", "metric.reversible=true", "metric.reversible"),
            ("katok-torus", "metric.reversible=false", "metric.reversible"),
        ],
    )
    def test_katok_runner_rejects_another_metric(self, tmp_path, capsys, scenario, option, path):
        # these runners build their metric themselves; a block naming another
        # one would be echoed in report.json but not run
        rc = cli_main(["run", scenario, "--out", str(tmp_path), "--set", option])
        assert rc == 3
        assert path in capsys.readouterr().err
        assert not (tmp_path / scenario / "latest").exists()

    def test_non_numeric_and_unknown_settings_exit_3(self, tmp_path, capsys):
        for option, path in [("integrator.rel_tol=abc", "integrator.rel_tol"),
                             ("integrator.rel_tl=1e-6", "integrator.rel_tl"),
                             ("integrator.x2_cap=-5", "integrator.x2_cap")]:
            rc = cli_main(["validate", "--out", str(tmp_path), "--set", option])
            assert rc == 3
            assert path in capsys.readouterr().err
        assert not (tmp_path / "validate.json").exists()

    def test_rotation_command_keeps_configured_pole_cap(self, tmp_path, capsys):
        # a pole cap at |x2| = 0.1 leaves no room for a section return on the
        # round sphere, so the map must fail instead of running uncapped
        rc = cli_main(
            ["rotation", "--out", str(tmp_path), "--set", "integrator.x2_cap=0.1",
             "--set", "analysis.rotation.n=10"]
        )
        assert rc == 3
        assert not (tmp_path / "rotation.json").exists()
