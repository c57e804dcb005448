"""Golden digests: the deterministic artifacts of a fixed seed, pinned.

The constants were computed before the hot-path rewrite that shares
per-step quantities (pair distances, obstacle views, dynamic states, path
frames) and prunes the velocity-obstacle search, so a pass proves that the
rewrite left the output byte-identical.  The digests of what `asvsim
simulate` and `asvsim plot` write were computed before the path plot read
its waypoint and threshold rings from the scenario.  A change that alters
numerics on purpose must recompute them and say so.
"""

import hashlib

import pytest

from asvsim import montecarlo as mc
from asvsim import scenarios, serialize
from asvsim.cli import main
from asvsim.engine import run

#: a seed whose env-5 runs put several vessels in one detection radius, so
#: a change in the order the fields are summed changes the digests
SEED = 1

#: sha256 of the canonical env-5 batch summary, 2 runs, master seed SEED
BATCH_DIGESTS = {
    "apf_mvortex": "e864c261feb55a7a0c2716a13a15869ae1082c4660527840185589640870c608",
    "apf_inverse": "72bec9041782195834db7b9bc37b62107de9945a64db860ce893ee19c8fa0229",
    "velocity_obstacle": "568c7a61df4769adcd6faefbc5eadc304a7d2cffe10a087c6ffdaaf4a40a315d",
}

#: sha256 of the recorded trajectory.csv of the canned three-ship scene
THREE_SHIP_CSV_DIGEST = "fbf4963d76076b2462a3ba5a18314a73aef7532b0ca223f5f31b3359e271f9f3"

#: sha256 of the recorded trajectory.csv of the canned scenes that exercise
#: the channel-wall sources and the unmodified sink-vortex field
SCENE_CSV_DIGESTS = {
    "narrow_channel": "089e8d8c3f09f8b192e8e0443da381ee6ab6e16b51d477cb483b9957655b4fec",
    "static_avoidance_sinkvortex":
        "88d4c215d800d52514bc4abb3599bf7253393a3e4f89bc4968fdf8e8ad9df8cb",
}
SCENES = {
    "narrow_channel": scenarios.narrow_channel,
    "static_avoidance_sinkvortex": lambda: scenarios.static_avoidance("apf_sinkvortex"),
}

#: the canned scenes, each a builder that takes the method
SCENE_BUILDERS = {
    "square_tracking": scenarios.square_tracking,
    "static_avoidance": scenarios.static_avoidance,
    "head_on": scenarios.head_on,
    "crossing": scenarios.crossing,
    "overtaking": scenarios.overtaking,
    "three_ship": scenarios.three_ship,
    "narrow_channel": scenarios.narrow_channel,
}

#: sha256 of (trajectory.csv, result.json) that `asvsim simulate` writes for
#: each canned scene built for each method
SIMULATE_DIGESTS = {
    "crossing/apf_inverse": (
        "89f644c66c69646ccaf906acbfeca5396b8bb9bc51c55d9702fcd0ad09b7f3d6",
        "6ad52655f8b50e82808007f616b61d9ee38db0c960cc1c98a69cd48667689064"),
    "crossing/apf_mvortex": (
        "7419cd77081a500d84696b85feadda770e1ba0dd01ff0db7952ff4eaa32f9b20",
        "34a297d0e67db33cdd8f82f25b6d651b04d3b62f3571d54b07520eb951a2e611"),
    "crossing/apf_sinkvortex": (
        "dcf07436a4e5539bc58a7e1a4adb46a75bc8f17e0ed273e1381781725aa5022e",
        "4c754e52c7abbe5d4e008a2221ce17358213c7bcdfb3e1900a682358c0703945"),
    "crossing/velocity_obstacle": (
        "5f5c625cd3120846f164ab91dabadb801c3f68cdcab5ce8b67914a1cf84a52b8",
        "771a221a39b76f8b8f787e2b07521b4081fae2a78c06a990a533ce2434a5a9ee"),
    "head_on/apf_inverse": (
        "5c26cefa3c5535e9222f9710050ef551b546e23e239c3807e877a1e6f7a0a256",
        "a4ac8e57cd0bf6e4ca2af6a3bbda2bffe9c1bef53f5879d5dce6e29e7f50c6f8"),
    "head_on/apf_mvortex": (
        "96690c68c40920847029c0aa86b6e69caf68e4fd58d65383f6461c491e03d2a1",
        "5676a9cc52f0031e8fb1ec3a290af1a55c156c4dbc94be7839c289059ef5c057"),
    "head_on/apf_sinkvortex": (
        "cab4da1725bbdf1258ed0a51a870d10209e56327cd5b5b1d6eb45b5352f5dfa8",
        "c7abd1b8cd13f20e3e845aaa5ef616b4d44cd9e1cfdf41f9eb542677cfe419d4"),
    "head_on/velocity_obstacle": (
        "314693d864da10543d87c3928a2a1a954872b8c0db75c329f3d027acb31f558a",
        "8fc3a570df4babe6b37b29e84a44c27058cd5105bf21d0b0066769bd60167abb"),
    "narrow_channel/apf_inverse": (
        "25a665569f7f2accd9337d1441059fc359f906f922b0a31adb1da8208f307f70",
        "a4c13c743a8e008833a0b0aa438deee75540cc0ccb08ec4ddff2ee1ea1471018"),
    "narrow_channel/apf_mvortex": (
        "089e8d8c3f09f8b192e8e0443da381ee6ab6e16b51d477cb483b9957655b4fec",
        "3953a9adfec82f3a222ec8f3223a21a0e767b6aa749b5d9e810dfdb882c6267e"),
    "narrow_channel/apf_sinkvortex": (
        "05c8c56ff1a499d02d005bc38e48c01ed51898cf57ff6d88a2b2ffa6f64e50f0",
        "0c8949c0a5bef9231491ad5a45f677f51bf46d426fbf8eed082c1b2f242bac40"),
    "narrow_channel/velocity_obstacle": (
        "7aea4db2fe25c8e990bcb17b522ee54e23490b926eb3aa0df08e686258bad0de",
        "ba6499ad45191c0bfca6dd8a4df9aefefb06b1992fb45a632a5a6d7740522c78"),
    "overtaking/apf_inverse": (
        "3e81120a4ee774b274d900aca05d36e459bc1563157acfebaeead26517effe91",
        "e3028a260f3dbcab148c652b473d49c14c52c05d54cc1b0b02644cbea101d665"),
    "overtaking/apf_mvortex": (
        "f04e4dcf4da9024f68809a5c6685b00637017243dd08b6b8d00ab1f50004e6ca",
        "8806b255c69e68727bd271c4a3c61d46f16f805a33cb9e16041b24d6baa08691"),
    "overtaking/apf_sinkvortex": (
        "f9341121a1eca2b7f646bc49d31a69571d53d668de535357ef37b7e4b948386c",
        "4731f184995aed0bf6d5244d6f0cb8b29bd4a7bf6a82b6198fabaf9898a173fc"),
    "overtaking/velocity_obstacle": (
        "d75105c298ee19501e02e860cc57b1b216f1c1295908d3fa8e7560d40bc0471a",
        "5bbc1b0c6070e47dc1a33ea76ec37ec11504316189055a214ebe426b4deb65af"),
    "square_tracking/apf_inverse": (
        "c1fe48aedd7e5b994c1d3f7a071f3701b6fba8f4ab36fcd0ae8331b24be5f5f4",
        "1e9970fbf3449e1c9854b39eba29cce71c833d7babae46a021fe437bd40c1b5e"),
    "square_tracking/apf_mvortex": (
        "c1fe48aedd7e5b994c1d3f7a071f3701b6fba8f4ab36fcd0ae8331b24be5f5f4",
        "1e9970fbf3449e1c9854b39eba29cce71c833d7babae46a021fe437bd40c1b5e"),
    "square_tracking/apf_sinkvortex": (
        "c1fe48aedd7e5b994c1d3f7a071f3701b6fba8f4ab36fcd0ae8331b24be5f5f4",
        "1e9970fbf3449e1c9854b39eba29cce71c833d7babae46a021fe437bd40c1b5e"),
    "square_tracking/velocity_obstacle": (
        "c1fe48aedd7e5b994c1d3f7a071f3701b6fba8f4ab36fcd0ae8331b24be5f5f4",
        "1e9970fbf3449e1c9854b39eba29cce71c833d7babae46a021fe437bd40c1b5e"),
    "static_avoidance/apf_inverse": (
        "0c3d55a54907995229aa562060193f50df83c97cbf53b9ae764e66890ce30387",
        "a103c4c02c596f883d1053a7e796ee2f5c3f13cfcd6efbd875748ba7e5360d57"),
    "static_avoidance/apf_mvortex": (
        "79e8925dd39422b6bd1d4c8b44ecc03614971819cde235fa3e0da3d001a9cf4f",
        "1aea7dcb92967ea1469dd43ae035297945b506a39e01cbe5b35f2a6e91b1ae7c"),
    "static_avoidance/apf_sinkvortex": (
        "88d4c215d800d52514bc4abb3599bf7253393a3e4f89bc4968fdf8e8ad9df8cb",
        "c76ab96c44f093189fe434f55b63aeec07e64a42f46af4e940b3dc8bc5ef218a"),
    "static_avoidance/velocity_obstacle": (
        "e6dce7bd7ac622110236d6f35327b497c1909d69517a1440eb1c9092fe63fbad",
        "fa7020c8ae89edbddebd7bc7e99ad788b40c3e2909fbd95830efa7bdca93f30e"),
    "three_ship/apf_inverse": (
        "b778039ffd57993ef370dcbaf9259340aafd92dd9b5db6f7b913c8dfc32f65ec",
        "825d99dc25ac0caf8e3869658a05cac2e99257fdc771cdee29c048c1b5fb40bc"),
    "three_ship/apf_mvortex": (
        "fbf4963d76076b2462a3ba5a18314a73aef7532b0ca223f5f31b3359e271f9f3",
        "3f2c07d12f8068611f3285d7d5cf9ca6127e3e079d53e7bd5091552847929e92"),
    "three_ship/apf_sinkvortex": (
        "ea40392f8ddd0f663ffa67b5b7ed061ab4abb80f083694a245c20c080ecd4f1c",
        "743e857deeefd5367939504abfc91262d0629a7a511c9c956888c3f79b66f88b"),
    "three_ship/velocity_obstacle": (
        "dc1cea8bb393989e526111dab5cbd28f9c7f21f103d4f9faa75f8b16d2e3f166",
        "bdf44b8fcf754eb34a52b0778125539394a3a60dc07ff099779349aff5318afe"),
}

#: sha256 of the vector-field plots that `asvsim plot --field` draws
FIELD_SVG_DIGESTS = {
    "inverse": "4b3feea1e710d48820fa288566889aab4bdbea9c51c7b9156ed1790aa6a54424",
    "mvortex": "d1459bb9787628daa014ed500e601b488181f13bff712a2e2b2e8b5c0d0e05c1",
    "sinkvortex": "30f63f194a0d4873ff5fea28c9eeda40fefaa743beccee3b0ef425fbd9ec0ea3",
}

#: sha256 of the path plots that `asvsim plot --kind path --scenario` draws of
#: the scenes built for their default method
PATH_SVG_DIGESTS = {
    "narrow_channel": "93b24a2181941ea93b371b9eb82d20e992937ce2f78baafd045ed3a9ebdb7a90",
    "static_avoidance": "528adb5e6af476c1c3030c4c22182be731da22bda51a8d56b67df2fcb7ab2fac",
    "three_ship": "d19dfe112f11e76ddff0d7e1d98b74e2347338e126187ae0d4f195c7793434a0",
}

#: sha256 of the time-series plots that `asvsim plot --kind K --scenario` draws
#: of the scenes built for their default method
SERIES_SVG_DIGESTS = {
    "narrow_channel/crosstrack": "787bced1552baf5d2198fc3d649438c9e33d8cfb127b83793b606e30ea5643e4",
    "narrow_channel/distance": "bb4b2ade1bea60e4b904801fb5afc9bd4a70055ae77358712170cf5ceeffc190",
    "narrow_channel/heading": "d0a1437036db5f99b2671d3600a077b67c09c2029932de9d16b7b72e9299abc8",
    "narrow_channel/rudder": "81c4c5756f9e71108867e472b8c08ac978d9d0452d584eee8896987696b0f929",
    "three_ship/crosstrack": "75fe88060d358155552b2fbae2e84497ff8bc6b0ea7df86717d986ff9612d822",
    "three_ship/distance": "7865a2ee3a0490553a544337d79385eb583f024e3d03f1d2db0aef464ba0a99d",
    "three_ship/heading": "8e8a2432cd433092fef175d0af60253c294cbf66102af50da3d6737f9e3a42ea",
    "three_ship/rudder": "98f216a060edef0d3b0d8bcb2c6c09b9a7f7840520f4d3c2ea839a779f47476b",
}

#: sha256 of the summary.json that `asvsim batch --runs 6 --seed 3 --jobs 1`
#: writes for each environment and method
SUMMARY_DIGESTS = {
    "1/inverse": "cb3e9a81b6307dc3d8d3c6b31ce3e6eb43db1304741dcfcf6d1278d4cdcf2682",
    "1/mvortex": "97d5074a88ab2be073a75951cdb7b25786f7970d65c8890255348e94097b5675",
    "1/sinkvortex": "1159a21441a018747aa0be90c0e38c741af1109c8fff0cad5c4b56ef2bcef3e8",
    "1/vo": "011579a5d0054325441e17c21bdd90ce1140090242172f605ac302e6b8070bb9",
    "2/inverse": "6b1bfcbaf5eda313fa652b0d8da5c79c6e40d84b2b1a4978af135e8616de1891",
    "2/mvortex": "f1f8637bcf87b0d2ed4e1872ba6e58cc0f7c7b7d5c3ef7fdde2915c9d6d81c2f",
    "2/sinkvortex": "f1890cf394bed1aee2c4ac32e04c4c3fa5bd0b56c2fece900cf78bd3b6e13554",
    "2/vo": "84ada3b87286f0a223b7381900473a53bcfad44b6a619f48ee3c1c1587ba19e0",
    "3/inverse": "0c27980bb050fca48d817b673d319c6cfebc0134ff8ab129a0babaf5bab1328b",
    "3/mvortex": "d022f486a610c64bea64ffddacb2394b2aa08154119fa17f8e0e39b75b476000",
    "3/sinkvortex": "d0973e891339d8ebdf52998605ababf54bd77d58196d185a2b305da04789e741",
    "3/vo": "3978e20e14758980bb66229cf8b9097105c6a0f5f6112cd4916a86b9526b2906",
    "4/inverse": "4542c90311266ba19c7a0ec780026e464fd012f3064dfd3295c51d02f0da907a",
    "4/mvortex": "7db767187c4b89fb802f809b411b0f34ec6e6a37071c775364b89644a29a1b77",
    "4/sinkvortex": "a6dcee178e82a4b4f47dedda5600a7b52ccc1a8a541478c28b460a0ce9a1cb8c",
    "4/vo": "e4482e82e8b32c61b7a11b543ee3d82d965adbc91ab742721cad7e6ff473d0f2",
    "5/inverse": "496f315573022aac6d023df9d2985cc9768018915b7615340d96c71dde13b50d",
    "5/mvortex": "ac2501f82b3a0d87c914f71c0c2d556cc208c095b0576bef4aea49875a3841ae",
    "5/sinkvortex": "5f21c2469c1d5c4a6020af6b877f20a93b1b2d18e85851e9b0d9684924e3fcdc",
    "5/vo": "8fc583a626b1a8d27b8bb67350e00c354ea6a6ac55b7dc718f7b3322abfa2af4",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("method", sorted(BATCH_DIGESTS))
def test_env5_batch_summary_digest(method):
    records = mc.run_batch(mc.BatchSpec(env=mc.EnvSpec.by_id(5), method=method, n_runs=2,
                                        master_seed=SEED, jobs=1))
    text = serialize.dumps_canonical(serialize.batch_summary_dict(
        5, method, 2, SEED, records, mc.aggregate(records)))
    assert sha256(text.encode("utf-8")) == BATCH_DIGESTS[method]


def test_three_ship_trajectory_csv_digest(model, tmp_path):
    result = run(scenarios.three_ship(), model=model, record=True)
    path = tmp_path / "trajectory.csv"
    serialize.write_trajectory_csv(result, str(path))
    assert sha256(path.read_bytes()) == THREE_SHIP_CSV_DIGEST


@pytest.mark.parametrize("scene", sorted(SCENE_CSV_DIGESTS))
def test_scene_trajectory_csv_digest(scene, model, tmp_path):
    result = run(SCENES[scene](), model=model, record=True)
    path = tmp_path / "trajectory.csv"
    serialize.write_trajectory_csv(result, str(path))
    assert sha256(path.read_bytes()) == SCENE_CSV_DIGESTS[scene]


def simulate(scenario, out):
    """Write the scenario file and run `asvsim simulate` on it into out;
    returns the scenario file's path."""
    path = out / "scenario.json"
    path.write_text(serialize.dumps_canonical(serialize.scenario_to_dict(scenario)))
    main(["simulate", "--scenario", str(path), "--out", str(out)])
    return path


@pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
def test_simulate_output_digests(case, tmp_path):
    scene, method = case.split("/")
    simulate(SCENE_BUILDERS[scene](method=method), tmp_path)
    assert (sha256((tmp_path / "trajectory.csv").read_bytes()),
            sha256((tmp_path / "result.json").read_bytes())) == SIMULATE_DIGESTS[case]


@pytest.mark.parametrize("kind", sorted(FIELD_SVG_DIGESTS))
def test_field_plot_digest(kind, tmp_path):
    svg = tmp_path / "field.svg"
    assert main(["plot", "--field", kind, "--out", str(svg)]) == 0
    assert sha256(svg.read_bytes()) == FIELD_SVG_DIGESTS[kind]


@pytest.mark.parametrize("scene", sorted(PATH_SVG_DIGESTS))
def test_path_plot_digest(scene, tmp_path):
    scenario_path = simulate(SCENE_BUILDERS[scene](), tmp_path)
    svg = tmp_path / "path.svg"
    assert main(["plot", "--traj", str(tmp_path / "trajectory.csv"), "--kind", "path",
                 "--scenario", str(scenario_path), "--out", str(svg)]) == 0
    assert sha256(svg.read_bytes()) == PATH_SVG_DIGESTS[scene]


@pytest.mark.parametrize("case", sorted(SERIES_SVG_DIGESTS))
def test_series_plot_digest(case, tmp_path):
    scene, kind = case.split("/")
    scenario_path = simulate(SCENE_BUILDERS[scene](), tmp_path)
    svg = tmp_path / f"{kind}.svg"
    assert main(["plot", "--traj", str(tmp_path / "trajectory.csv"), "--kind", kind,
                 "--scenario", str(scenario_path), "--out", str(svg)]) == 0
    assert sha256(svg.read_bytes()) == SERIES_SVG_DIGESTS[case]


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(SUMMARY_DIGESTS))
def test_batch_summary_digest(case, tmp_path):
    env, method = case.split("/")
    assert main(["batch", "--env", env, "--method", method, "--runs", "6", "--seed", "3",
                 "--jobs", "1", "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "summary.json").read_bytes()) == SUMMARY_DIGESTS[case]
