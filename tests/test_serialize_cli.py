import itertools
import json
import math
import re
from dataclasses import replace

import jsonschema
import pytest

from asvsim import engine, scenarios
from asvsim.apf import StaticObstacle
from asvsim.cli import main
from asvsim.engine import AgentSpec, Scenario, SimConfig, World, run
from asvsim.vo import VOParams
from asvsim.plots import (
    FIELD_GOAL,
    FIELD_OBSTACLE,
    FIELD_OBSTACLE_RADIUS,
    pairwise_distances,
    plot_field,
    plot_series,
    sample_field,
)
from asvsim.serialize import (
    CSV_COLUMNS,
    NUMBER,
    PARAMETERS,
    ScenarioError,
    batch_summary_dict,
    dumps_canonical,
    load_scenario,
    parse_scenario,
    read_trajectory_csv,
    result_to_dict,
    scenario_to_dict,
    write_trajectory_csv,
)

from importlib import resources


def schema(name):
    return json.loads(resources.files("asvsim.data").joinpath(name).read_text())


MINIMAL = {
    "agents": [
        {"id": 0, "start": [0.0, 0.0], "waypoints": [[60.0, 0.0]]}
    ]
}

#: the Monte Carlo commands, each with a valid method argument
MC_COMMANDS = {
    "batch": ["batch", "--method", "mvortex"],
    "compare": ["compare", "--methods", "mvortex,inverse"],
}

#: arguments a Monte Carlo command must reject before its first batch runs;
#: a repeated option overrides the command's earlier value
BAD_MC_ARGS = {
    "negative_seed": ["--seed", "-1"],
    "one_run": ["--runs", "1"],
    "no_jobs": ["--jobs", "0"],
    "repeated_method": ["--methods", "mvortex,mvortex"],
}

#: channel walls that cannot bound a channel, with the message they get;
#: the MINIMAL ship starts between the non-parallel ones
BAD_WALLS = {
    "zero_length_wall": ({"boundary_a": [[0, 5], [0, 5]],
                          "boundary_b": [[0, -5], [60, -5]]},
                         "degenerate boundary segment"),
    "non_parallel_walls": ({"boundary_a": [[-10, 5], [60, 5]],
                            "boundary_b": [[-10, -5], [60, -30]]},
                           "channel walls must be parallel"),
    "walls_on_one_line": ({"boundary_a": [[-10, 0], [20, 0]],
                           "boundary_b": [[30, 0], [60, 0]]},
                          "channel walls must not lie on one line"),
}


def _agent(**fields):
    return [dict(MINIMAL["agents"][0], **fields)]


#: documents that fail validation, with the start of their message: the
#: path of the offending field
BAD_DOCUMENTS = {
    "root_not_object": ([], "scenario root must be a JSON object"),
    "ship_file": (dict(MINIMAL, ship_file="kcs.json"),
                  "scenario: unknown field(s) ['ship_file']"),
    "schema_version": (dict(MINIMAL, schema_version="scenario-2"),
                       "scenario.schema_version: unsupported version"),
    "no_agents": ({"agents": []}, "scenario.agents: must be a non-empty list"),
    "duplicate_ids": ({"agents": MINIMAL["agents"] * 2},
                      "scenario.agents: agent ids must be unique"),
    "name": (dict(MINIMAL, name=3), "scenario.name: must be a string"),
    "agent_not_object": ({"agents": [3]}, "agents[0]: must be an object"),
    "agent_id": ({"agents": _agent(id="a")}, "agents[0].id: must be an integer"),
    "agent_id_missing": ({"agents": [{"start": [0, 0], "waypoints": [[60, 0]]}]},
                         "agents[0].id: must be an integer"),
    "agent_id_bool": ({"agents": _agent(id=True)}, "agents[0].id: must be an integer"),
    "agent_start": ({"agents": _agent(start=[0.0])}, "agents[0].start: must be a [x, y] pair"),
    "agent_start_missing": ({"agents": [{"id": 0, "waypoints": [[60, 0]]}]},
                            "agents[0].start: must be a [x, y] pair"),
    "agent_start_text": ({"agents": _agent(start=["a", 0])},
                         "agents[0].start: must be a [x, y] pair"),
    "agent_start_bool": ({"agents": _agent(start=[True, 0])},
                         "agents[0].start: must be a [x, y] pair"),
    "agent_start_nan": ({"agents": _agent(start=[0, math.nan])},
                        "agents[0].start: must be a [x, y] pair"),
    "agent_method": ({"agents": _agent(method="warp")}, "agents[0].method: unknown method"),
    "no_waypoints": ({"agents": _agent(waypoints=[])},
                     "agents[0].waypoints: must be a non-empty list"),
    "waypoints_not_list": ({"agents": _agent(waypoints="home")},
                           "agents[0].waypoints: must be a non-empty list"),
    "agents_not_list": ({"agents": MINIMAL["agents"][0]},
                        "scenario.agents: must be a non-empty list"),
    "start_on_waypoint": ({"agents": _agent(waypoints=[[0.0, 0.0], [60.0, 0.0]])},
                          "agents[0]: consecutive waypoints must not coincide"),
    "repeated_waypoint": ({"agents": _agent(waypoints=[[60.0, 0.0], [60.0, 0.0]])},
                          "agents[0]: consecutive waypoints must not coincide"),
    "static_not_object": (dict(MINIMAL, static_obstacles=[3]),
                          "static_obstacles[0]: must be an object"),
    "block_not_object": (dict(MINIMAL, sim=[]), "sim: must be an object"),
    "not_a_number": (dict(MINIMAL, sim={"dt": "fast"}), "sim.dt: must be a finite number"),
    "bool_number": (dict(MINIMAL, sim={"dt": True}), "sim.dt: must be a finite number"),
    "infinite_number": (dict(MINIMAL, sim={"max_time": math.inf}),
                        "sim.max_time: must be a finite number"),
    "termination": (dict(MINIMAL, sim={"termination": "x"}),
                    "sim.termination: must be 'all' or 'own'"),
    "max_time_below_dt": (dict(MINIMAL, sim={"dt": 1.0, "max_time": 0.5}),
                          "sim: need dt > 0 and max_time > dt"),
    "channel_segment": (dict(MINIMAL, channel={"boundary_a": [[0, 5]],
                                               "boundary_b": [[0, -5], [60, -5]]}),
                        "channel.boundary_a: must be a [[x, y], [x, y]] segment"),
    "channel_no_wall": (dict(MINIMAL, channel={"boundary_b": [[0, -5], [60, -5]]}),
                        "channel.boundary_a: must be a [[x, y], [x, y]] segment"),
    # a null block is no block of the schema; it is not an omitted one
    **{f"null_{block}": (dict(MINIMAL, **{block: None}), f"{block}: must be an object")
       for block in ("vo", "sim", "channel")},
    # the blocks that held the reference tuning are gone, null or not
    **{f"null_{block}": (dict(MINIMAL, **{block: None}),
                         f"scenario: unknown field(s) ['{block}']")
       for block in ("guidance", "control", "apf")},
}

#: every key of the reference tuning a scenario file could once set; the
#: values are module constants now, so a file that sets one is refused
REMOVED_KEYS = (
    "guidance.delta", "guidance.k_factor", "guidance.r_tol", "control.kp", "control.kd",
    "apf.k_att", "apf.k_rep", "apf.d0", "apf.lambda_sink", "apf.k_vor0",
    "apf.r_tol_vortex", "apf.in_extremis_range", "vo.heading_resolution_deg",
    "vo.max_course_change_deg", "sim.collision_threshold",
    "channel.activation_distance", "channel.source_strength",
)
#: the removed keys that took any finite number, not only one > 0
SIGNED_REMOVED_KEYS = ("guidance.k_factor", "apf.lambda_sink", "apf.k_vor0")


def unknown_key_error(path):
    """The start of the error for a file that sets the removed key `path`:
    it names the key, or its block when the block is gone."""
    block, key = path.split(".")
    name, where = (key, block) if block in ("vo", "sim", "channel") else (block, "scenario")
    return rf"^{where}: unknown field\(s\) \['{name}'\]"


class TestScenarioParsing:
    def test_minimal_gets_reference_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.config == SimConfig(dt=0.1, max_time=400.0, R_safe=15.0, termination="all")
        assert sc.vo_params == VOParams(cone_radius=6.0)
        assert sc.channel is None
        assert sc.agents[0].method == "apf_mvortex"

    @pytest.mark.parametrize("path", REMOVED_KEYS)
    def test_removed_tuning_key_is_unknown(self, path):
        # the reference tuning is code: setting one of its former keys, even
        # to a value it once accepted, is an error
        block, key = path.split(".")
        doc = scenario_to_dict(scenarios.narrow_channel())
        doc.setdefault(block, {})[key] = 1.0
        with pytest.raises(ScenarioError, match=unknown_key_error(path)):
            parse_scenario(doc)

    def test_unknown_field_rejected_with_path(self):
        doc = dict(MINIMAL, weather="stormy")
        with pytest.raises(ScenarioError, match="weather"):
            parse_scenario(doc)

    def test_seed_is_not_a_parameter(self):
        # the engine is deterministic; a Monte Carlo batch takes its seed
        # from the command line, never from a scenario file
        with pytest.raises(ScenarioError, match=r"^sim: unknown field\(s\) \['seed'\]"):
            parse_scenario(dict(MINIMAL, sim={"seed": 1}))

    def test_negative_r_safe_names_field(self):
        doc = dict(MINIMAL, sim={"r_safe": -1.0})
        with pytest.raises(ScenarioError, match="sim.r_safe"):
            parse_scenario(doc)

    def test_r_safe_alone_matches_programmatic_scenario(self):
        # the detection radius is stored once, so setting it in the file
        # changes nothing else (the influence distance apf.D0 is a constant)
        parsed = parse_scenario(dict(MINIMAL, sim={"r_safe": 20}))
        agent = AgentSpec(id=0, start=(0.0, 0.0), heading=0.0, speed=1.0,
                          waypoints=((60.0, 0.0),))
        assert parsed == Scenario(agents=[agent], config=SimConfig(R_safe=20.0))

    @pytest.mark.parametrize("value", [None, {}, "none", 3])
    def test_static_obstacles_must_be_a_list(self, value):
        doc = dict(MINIMAL, static_obstacles=value)
        with pytest.raises(ScenarioError, match="^static_obstacles: must be a list$"):
            parse_scenario(doc)

    @pytest.mark.parametrize("case", sorted(BAD_WALLS))
    def test_bad_channel_walls_rejected(self, case):
        walls, message = BAD_WALLS[case]
        with pytest.raises(ScenarioError, match=f"^channel: {message}$"):
            parse_scenario(dict(MINIMAL, channel=walls))

    @pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
    def test_bad_document_names_its_path(self, case):
        doc, message = BAD_DOCUMENTS[case]
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}"):
            parse_scenario(doc)

    def test_static_obstacle_radius_defaults(self):
        sc = parse_scenario(dict(MINIMAL, static_obstacles=[{"center": [30, 0]}]))
        assert sc.static_obstacles == [StaticObstacle((30.0, 0.0))]

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ScenarioError, match="^not valid JSON: "):
            load_scenario(str(path))

    def test_bad_agent_speed_names_path(self):
        doc = {"agents": [{"id": 0, "start": [0, 0], "speed": 5.0,
                           "waypoints": [[60, 0]]}]}
        with pytest.raises(ScenarioError, match="agents\\[0\\]"):
            parse_scenario(doc)

    def test_round_trip_identity(self):
        sc = scenarios.narrow_channel()
        doc = scenario_to_dict(sc)
        sc2 = parse_scenario(doc)
        assert dumps_canonical(scenario_to_dict(sc2)) == dumps_canonical(doc)

    def test_generated_documents_validate_against_shipped_schema(self):
        validator = jsonschema.Draft7Validator(schema("scenario.schema.json"))
        for builder in (scenarios.head_on, scenarios.square_tracking,
                        scenarios.narrow_channel, scenarios.three_ship):
            doc = scenario_to_dict(builder())
            validator.validate(doc)
        validator.validate(MINIMAL)

    def test_schema_rejects_unknown_fields_too(self):
        validator = jsonschema.Draft7Validator(schema("scenario.schema.json"))
        with pytest.raises(jsonschema.ValidationError):
            validator.validate(dict(MINIMAL, weather="stormy"))


SCHEMA_PROPERTIES = schema("scenario.schema.json")["properties"]
PARAMETER_BLOCKS = sorted({block for block, _, _ in PARAMETERS.values()} | {"channel"})
#: "block.key" -> (Scenario attribute, dataclass field, kind) of every number key
NUMBER_KEYS = {f"{block}.{key}": (attr, name, kind)
               for attr, (block, _, keys) in PARAMETERS.items()
               for key, (name, kind) in keys.items() if not isinstance(kind, tuple)}

#: (value, "block.key") of every value the parser rejects for a number key,
#: or rejected before the key was removed: NaN and +-inf for each, and 0 and
#: -1 too for each that must be > 0
NON_FINITE = (math.nan, math.inf, -math.inf)
PARSER_REJECTS = [
    (value, path)
    for path, positive in [(path, kind != NUMBER) for path, (_, _, kind) in NUMBER_KEYS.items()]
    + [(path, path not in SIGNED_REMOVED_KEYS) for path in REMOVED_KEYS]
    for value in ((0.0, -1.0, *NON_FINITE) if positive else NON_FINITE)]


class TestSchemaParity:
    """The parser's parameter table and the shipped schema describe the
    same keys and reject the same non-positive values."""

    @pytest.mark.parametrize("block", PARAMETER_BLOCKS)
    def test_block_keys_match_schema(self, block):
        table_keys = {key for b, _, keys in PARAMETERS.values() if b == block
                      for key in keys}
        schema_keys = set(SCHEMA_PROPERTIES[block]["properties"])
        if block == "channel":
            schema_keys -= {"boundary_a", "boundary_b"}  # geometry, not parameters
        assert schema_keys == table_keys

    @pytest.mark.parametrize("path", [
        f"{block}.{key}" for block in PARAMETER_BLOCKS
        for key, spec in SCHEMA_PROPERTIES[block]["properties"].items()
        if spec.get("exclusiveMinimum") == 0])
    def test_schema_positive_keys_rejected_at_zero(self, path):
        block, key = path.split(".")
        doc = scenario_to_dict(scenarios.narrow_channel())
        doc[block][key] = 0
        with pytest.raises(ScenarioError, match=f"^{re.escape(path)}: "):
            parse_scenario(doc)

    @pytest.mark.parametrize("value, path", PARSER_REJECTS)
    def test_params_reject_what_the_parser_rejects(self, value, path):
        # a programmatic scenario gets the same check as the key in a file; a
        # removed key is refused as unknown before its value is looked at
        block, key = path.split(".")
        doc = scenario_to_dict(scenarios.narrow_channel())
        doc.setdefault(block, {})[key] = value
        removed = path in REMOVED_KEYS
        with pytest.raises(ScenarioError, match=unknown_key_error(path) if removed
                           else f"^{re.escape(path)}: must be"):
            parse_scenario(doc)
        if not removed:  # a module constant has no programmatic setting
            attr, name, _ = NUMBER_KEYS[path]
            params = getattr(scenarios.narrow_channel(), attr)
            with pytest.raises(ValueError):
                replace(params, **{name: value})


class TestTrajectoryCSV:
    def test_golden_header(self, tmp_path, model):
        res = run(scenarios.head_on(), model=model, record=True)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(res, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "t_prime,agent_id,x_L,y_L,psi_rad,u_nd,v_nd,r_nd,delta_rad,delta_c_rad,psi_d_rad,mode,y_e_L"
        assert tuple(header.split(",")) == CSV_COLUMNS

    def test_round_trip(self, tmp_path, model):
        res = run(scenarios.head_on(), model=model, record=True)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(res, str(path))
        rows = read_trajectory_csv(str(path))
        assert set(rows) == {0, 1}
        assert len(rows[0]) == len(res.trajectories[0])
        for rec, orig in zip(rows[0], res.trajectories[0]):
            assert rec == pytest.approx(orig)

    def test_unrecorded_run_has_no_trajectory(self, tmp_path, model):
        res = run(scenarios.head_on(), model=model, record=False)
        with pytest.raises(ValueError, match="without trajectory recording"):
            write_trajectory_csv(res, str(tmp_path / "t.csv"))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,agent\r\n0.0,0\r\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_trajectory_csv(str(path))
        path.write_text("")
        with pytest.raises(ValueError, match=r"unexpected CSV header \[\]"):
            read_trajectory_csv(str(path))

    @pytest.mark.parametrize("field, value", [(0, "x"), (11, "0.5")], ids=["t_prime", "mode"])
    def test_non_numeric_field_names_file_and_line(self, tmp_path, field, value):
        row = ["0.0", "0", "1.0", "2.0", "0.0", "1.0", "0.0", "0.0", "0.0", "0.0", "0.0",
               "0", "0.0"]
        row[field] = value
        path = tmp_path / "t.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\r\n" + ",".join(row) + "\r\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: "):
            read_trajectory_csv(str(path))

    def test_one_row_per_agent_per_step(self, tmp_path, model):
        res = run(scenarios.head_on(), model=model, record=True)
        path = tmp_path / "t.csv"
        write_trajectory_csv(res, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) - 1 == 2 * len(res.trajectories[0])


class TestResultJSON:
    def test_validates_against_shipped_schema(self, model):
        res = run(scenarios.head_on(), model=model, record=True)
        doc = result_to_dict(res, scenarios.head_on())
        jsonschema.Draft7Validator(schema("result.schema.json")).validate(doc)

    def test_mid_run_result_reports_running(self, model):
        # a result taken before the run has ended says so, in a value the
        # shipped schema lists
        world = World(scenarios.head_on(), model=model, record=False)
        for _ in range(3):
            assert world.step()
        res = world.result()
        assert (res.end_reason, res.n_steps, res.t_end) == ("running", 3, world.t)
        assert res.outcomes == ["running", "running"]
        doc = result_to_dict(res, scenarios.head_on())
        jsonschema.Draft7Validator(schema("result.schema.json")).validate(doc)

    def test_outcome_enum_is_the_engine_vocabulary(self):
        agent = schema("result.schema.json")["properties"]["agents"]["items"]
        constants = {v for k, v in vars(engine).items() if k.startswith("OUTCOME_")}
        assert set(agent["properties"]["outcome"]["enum"]) == constants

    def test_end_reason_enum_is_the_engine_vocabulary(self):
        enum = schema("result.schema.json")["properties"]["end_reason"]["enum"]
        assert sorted(enum) == sorted(engine.END_REASONS)

    def test_batch_summary_has_no_timing(self, model):
        from asvsim.montecarlo import BatchSpec, EnvSpec, aggregate, run_batch
        records = run_batch(BatchSpec(env=EnvSpec.by_id(1), method="apf_mvortex",
                                      n_runs=3, master_seed=5, jobs=1))
        doc = batch_summary_dict(1, "apf_mvortex", 3, 5, records, aggregate(records))
        text = dumps_canonical(doc)
        assert "timing" not in text
        assert "guidance_call" not in text


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "head_on.json"
    path.write_text(dumps_canonical(scenario_to_dict(scenarios.head_on())))
    return str(path)


@pytest.fixture(scope="module")
def inverse_failure_file(tmp_path_factory):
    sc = scenarios.static_avoidance("apf_inverse", goal_x=60.0)
    path = tmp_path_factory.mktemp("scen") / "inverse_failure.json"
    path.write_text(dumps_canonical(scenario_to_dict(sc)))
    return str(path)


class TestCLI:
    @pytest.mark.parametrize("cmd", ["simulate", "batch", "compare", "plot", "validate"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_simulate_head_on_success(self, scenario_file, tmp_path, capsys):
        code = main(["simulate", "--scenario", scenario_file,
                     "--out", str(tmp_path)])
        assert code == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert all(a["outcome"] == "success" for a in result["agents"])
        assert (tmp_path / "trajectory.csv").exists()

    def test_simulate_collision_exit_code(self, inverse_failure_file, tmp_path):
        code = main(["simulate", "--scenario", inverse_failure_file,
                     "--out", str(tmp_path)])
        assert code == 2
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["agents"][0]["outcome"] == "collision"

    def test_simulate_missing_file(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_simulate_has_no_seed_option(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", scenario_file, "--seed", "1",
                  "--out", str(tmp_path)])
        assert exc.value.code != 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dt", ["-1", "0"])
    def test_simulate_rejects_nonpositive_dt(self, scenario_file, tmp_path, capsys, dt):
        code = main(["simulate", "--scenario", scenario_file, "--dt", dt,
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "result.json").exists()

    def test_simulate_reports_runaway(self, scenario_file, tmp_path, capsys):
        # at dt = 1.0, the rudder time constant, the integration runs away
        code = main(["simulate", "--scenario", scenario_file, "--dt", "1.0",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: surge runaway")
        assert not (tmp_path / "result.json").exists()

    def test_simulate_reports_non_finite_state(self, tmp_path, capsys):
        # a step so long that one RK4 step overflows every state component
        doc = scenario_to_dict(scenarios.head_on())
        doc["sim"].update(dt=1e300, max_time=1e301)
        scen = tmp_path / "huge_step.json"
        scen.write_text(dumps_canonical(doc))
        assert main(["validate", "--scenario", str(scen)]) == 0
        assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: non-finite state for agent 0 at t'=0.0\n"
        assert not (tmp_path / "result.json").exists()

    def test_simulate_timeout_exit_code(self, tmp_path):
        doc = scenario_to_dict(scenarios.head_on())
        doc["sim"]["max_time"] = 5
        scen = tmp_path / "short.json"
        scen.write_text(dumps_canonical(doc))
        assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)]) == 3
        result = json.loads((tmp_path / "result.json").read_text())
        assert [a["outcome"] for a in result["agents"]] == ["timeout", "timeout"]

    def test_method_override(self, scenario_file, tmp_path):
        code = main(["simulate", "--scenario", scenario_file, "--method", "vo",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_validate_ok(self, scenario_file, capsys):
        assert main(["validate", "--scenario", scenario_file]) == 0

    def test_validate_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(MINIMAL, bogus=1)))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_batch_byte_identical_summaries(self, tmp_path):
        for sub in ("a", "b"):
            code = main(["batch", "--env", "1", "--method", "mvortex",
                         "--runs", "6", "--seed", "7", "--jobs", "1",
                         "--out", str(tmp_path / sub)])
            assert code == 0
        s1 = (tmp_path / "a" / "summary.json").read_bytes()
        s2 = (tmp_path / "b" / "summary.json").read_bytes()
        assert s1 == s2

    def test_batch_jobs_invariant(self, tmp_path):
        main(["batch", "--env", "1", "--method", "mvortex", "--runs", "6",
              "--seed", "9", "--jobs", "1", "--out", str(tmp_path / "j1")])
        main(["batch", "--env", "1", "--method", "mvortex", "--runs", "6",
              "--seed", "9", "--jobs", "2", "--out", str(tmp_path / "j2")])
        assert ((tmp_path / "j1" / "summary.json").read_bytes()
                == (tmp_path / "j2" / "summary.json").read_bytes())

    def test_validate_rejects_non_list_static_obstacles(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(MINIMAL, static_obstacles=None)))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err == "error: static_obstacles: must be a list\n"

    @pytest.mark.parametrize("case", ["start_on_waypoint", "repeated_waypoint"])
    def test_validate_rejects_coincident_waypoints(self, tmp_path, capsys, case):
        # validate applies every check that simulate applies before its first step
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(BAD_DOCUMENTS[case][0]))
        assert main(["validate", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == "error: agents[0]: consecutive waypoints must not coincide\n"

    @pytest.mark.parametrize("case", sorted(BAD_WALLS))
    def test_validate_rejects_bad_channel_walls(self, tmp_path, capsys, case):
        walls, message = BAD_WALLS[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(MINIMAL, channel=walls)))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: channel: {message}\n"

    @pytest.mark.parametrize("bad, cmd", [
        *itertools.product(["negative_seed", "one_run", "no_jobs"], ["batch", "compare"]),
        ("repeated_method", "compare"),
    ])
    def test_monte_carlo_commands_reject_before_running(self, tmp_path, capsys,
                                                        monkeypatch, cmd, bad):
        def no_run(args):
            raise AssertionError("a run started")

        # batch and compare both run every scenario through _run_one
        monkeypatch.setattr("asvsim.montecarlo._run_one", no_run)
        code = main([*MC_COMMANDS[cmd], "--env", "1", "--runs", "2", "--jobs", "1",
                     *BAD_MC_ARGS[bad], "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["validate", "simulate", "batch", "compare"])
    def test_failure_is_one_error_line(self, scenario_file, tmp_path, capsys,
                                       monkeypatch, cmd):
        def no_run(args):
            raise AssertionError("a run started")

        monkeypatch.setattr("asvsim.montecarlo._run_one", no_run)
        # a UTF-16 file: no UTF-8 scenario for validate, no directory for --out
        bad = tmp_path / "utf16.json"
        bad.write_bytes(json.dumps(MINIMAL).encode("utf-16"))
        assert bad.read_bytes().startswith(b"\xff\xfe")
        argv = {"validate": ["validate", "--scenario", str(bad)],
                "simulate": ["simulate", "--scenario", scenario_file, "--out", str(bad)],
                **{c: [*MC_COMMANDS[c], "--env", "1", "--runs", "2", "--jobs", "1",
                       "--out", str(bad)] for c in MC_COMMANDS}}
        assert main(argv[cmd]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert str(bad) in err

    def test_batch_invalid_env(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--env", "9", "--method", "mvortex",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2  # argparse rejects the choice

    def test_compare_writes_comparison(self, tmp_path):
        code = main(["compare", "--env", "1", "--methods", "mvortex,inverse",
                     "--runs", "4", "--seed", "3", "--jobs", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert set(doc["methods"]) == {"mvortex", "inverse"}
        assert set(doc["success_rate_deltas"]) == {"mvortex-inverse"}


@pytest.fixture(scope="module")
def square_outputs(tmp_path_factory, model):
    out = tmp_path_factory.mktemp("plots")
    sc = scenarios.square_tracking()
    scen_path = out / "square.json"
    scen_path.write_text(dumps_canonical(scenario_to_dict(sc)))
    code = main(["simulate", "--scenario", str(scen_path), "--out", str(out)])
    assert code == 0
    return out, scen_path


class TestPlots:
    def test_path_plot_contains_waypoint_markers(self, square_outputs):
        out, scen_path = square_outputs
        svg = out / "path.svg"
        code = main(["plot", "--traj", str(out / "trajectory.csv"),
                     "--kind", "path", "--scenario", str(scen_path),
                     "--out", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.count('class="waypoint"') == 4
        assert text.startswith("<svg")

    def test_path_plot_without_scenario(self, square_outputs):
        out, _ = square_outputs
        svg = out / "path_only.svg"
        code = main(["plot", "--traj", str(out / "trajectory.csv"),
                     "--kind", "path", "--out", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert 'class="trajectory-0"' in text
        assert 'class="waypoint' not in text

    def test_series_plots_render(self, square_outputs):
        out, _ = square_outputs
        for kind in ("rudder", "heading", "crosstrack"):
            code = main(["plot", "--traj", str(out / "trajectory.csv"),
                         "--kind", kind, "--out", str(out / f"{kind}.svg")])
            assert code == 0
            assert (out / f"{kind}.svg").read_text().startswith("<svg")

    def test_distance_plot_minimum_matches_result(self, tmp_path, model):
        sc = scenarios.head_on()
        scen_path = tmp_path / "ho.json"
        scen_path.write_text(dumps_canonical(scenario_to_dict(sc)))
        assert main(["simulate", "--scenario", str(scen_path),
                     "--out", str(tmp_path)]) == 0
        rows = read_trajectory_csv(str(tmp_path / "trajectory.csv"))
        pairs = pairwise_distances(rows, r_safe=15.0)
        plotted_min = min(d for series in pairs.values() for _, d in series)
        result = json.loads((tmp_path / "result.json").read_text())
        assert plotted_min == pytest.approx(result["agents"][0]["min_ship_distance"],
                                            abs=1e-9)
        assert main(["plot", "--traj", str(tmp_path / "trajectory.csv"),
                     "--kind", "distance", "--out", str(tmp_path / "d.svg")]) == 0

    @pytest.mark.parametrize("scene, marks", [
        ("static_avoidance", {"obstacle": 1, "obstacle-threshold": 1, "channel-wall": 0}),
        ("narrow_channel", {"obstacle": 0, "obstacle-threshold": 0, "channel-wall": 2}),
    ])
    def test_path_plot_draws_obstacles_and_walls(self, tmp_path, scene, marks):
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(dumps_canonical(scenario_to_dict(getattr(scenarios, scene)())))
        assert main(["simulate", "--scenario", str(scen_path), "--out", str(tmp_path)]) == 0
        svg = tmp_path / "path.svg"
        assert main(["plot", "--traj", str(tmp_path / "trajectory.csv"), "--kind", "path",
                     "--scenario", str(scen_path), "--out", str(svg)]) == 0
        text = svg.read_text()
        assert {cls: text.count(f'class="{cls}"') for cls in marks} == marks

    def test_distance_plot_without_close_pair_fails(self, square_outputs, capsys):
        out, _ = square_outputs
        code = main(["plot", "--traj", str(out / "trajectory.csv"),
                     "--kind", "distance", "--out", str(out / "d.svg")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: no agent pair came within the detection radius\n")

    @pytest.mark.parametrize("kind", ["path", "rudder", "heading", "crosstrack", "distance"])
    def test_empty_trajectory_rejected(self, tmp_path, capsys, kind):
        traj = tmp_path / "t.csv"
        traj.write_text(",".join(CSV_COLUMNS) + "\r\n")
        code = main(["plot", "--traj", str(traj), "--kind", kind,
                     "--out", str(tmp_path / "p.svg")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {traj}: trajectory CSV has no rows\n"
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("kind, record, fields", [("path", "0.0,0,1.0", 3),
                                                      ("rudder", "", 0)])
    def test_short_trajectory_record_rejected(self, tmp_path, capsys, kind, record, fields):
        traj = tmp_path / "t.csv"
        traj.write_text(",".join(CSV_COLUMNS) + "\r\n" + record + "\r\n")
        code = main(["plot", "--traj", str(traj), "--kind", kind,
                     "--out", str(tmp_path / "p.svg")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {traj}: line 2: expected {len(CSV_COLUMNS)} fields, got {fields}\n")

    def test_plot_needs_a_trajectory(self, tmp_path, capsys):
        for args in (["--kind", "path"], ["--traj", str(tmp_path / "t.csv")]):
            assert main(["plot", *args, "--out", str(tmp_path / "p.svg")]) == 1
            assert capsys.readouterr().err == "error: need --traj and --kind (or --field)\n"

    def test_unknown_series_kind_fails(self, square_outputs):
        out, _ = square_outputs
        rows = read_trajectory_csv(str(out / "trajectory.csv"))
        with pytest.raises(ValueError, match="unknown series kind 'pie'"):
            plot_series(rows, "pie", str(out / "x.svg"))

    def test_unknown_kind_fails(self, square_outputs):
        out, _ = square_outputs
        code = main(["plot", "--traj", str(out / "trajectory.csv"),
                     "--kind", "pie", "--out", str(out / "x.svg")])
        assert code == 1

    def test_unknown_field_kind_fails(self, tmp_path):
        with pytest.raises(ValueError, match="unknown field kind 'vortex'"):
            sample_field("vortex")
        with pytest.raises(ValueError, match="unknown field kind 'vortex'"):
            plot_field("vortex", str(tmp_path / "field.svg"))
        assert main(["plot", "--field", "vortex",
                     "--out", str(tmp_path / "field.svg")]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_inverse_field_points_at_goal_beyond_influence(self):
        # outside the influence distance d0 only the goal attraction acts
        clear = [(x, y, ux, uy) for x, y, ux, uy in sample_field("inverse")
                 if math.hypot(x - FIELD_OBSTACLE[0], y - FIELD_OBSTACLE[1])
                 - FIELD_OBSTACLE_RADIUS > 15.0]
        assert len(clear) > 100
        for x, y, ux, uy in clear:
            dist = math.hypot(FIELD_GOAL[0] - x, FIELD_GOAL[1] - y)
            assert (ux, uy) == pytest.approx(((FIELD_GOAL[0] - x) / dist,
                                              (FIELD_GOAL[1] - y) / dist), abs=1e-12)

    def test_field_plot_creates_output_directory(self, tmp_path):
        out = tmp_path / "new" / "x.svg"
        assert main(["plot", "--field", "mvortex", "--out", str(out)]) == 0
        assert out.read_text().count("field-arrow") > 100

    def test_field_plot_to_a_bare_file_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["plot", "--field", "inverse", "--out", "field.svg"]) == 0
        assert (tmp_path / "field.svg").read_text().count("field-arrow") > 100

    def test_field_plot_starboard_arrows_avoid_obstacle(self, tmp_path):
        # probe on the starboard-approach side of the obstacle: the field
        # must not point into the obstacle disc
        arrows = sample_field("mvortex")
        obstacle = FIELD_OBSTACLE
        for x, y, ux, uy in arrows:
            dx, dy = obstacle[0] - x, obstacle[1] - y
            dist = math.hypot(dx, dy)
            if dist > 5.0 or y >= 0:
                continue
            # approach sector on the starboard side: inward radial component
            # must not dominate the arrow
            inward = (ux * dx + uy * dy) / dist
            assert inward < 0.98
        assert main(["plot", "--field", "mvortex",
                     "--out", str(tmp_path / "field.svg")]) == 0
        assert (tmp_path / "field.svg").read_text().count("field-arrow") > 100
