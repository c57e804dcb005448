"""Golden digests: the deterministic artifacts of a fixed seed, pinned.

The constants were computed before the hot-path rewrite that shares
per-step quantities (pair distances, obstacle views, dynamic states, path
frames) and prunes the velocity-obstacle search, so a pass proves that the
rewrite left the output byte-identical.  A change that alters numerics on
purpose must recompute them and say so.
"""

import hashlib

import pytest

from asvsim import montecarlo as mc
from asvsim import scenarios, serialize
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
