import contextlib
import io
import json
import time

import numpy as np
import pytest
from hypothesis import settings

from falcon import cli, encoder, oracle
from falcon.image_crop import TileSet, write_ppm

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def tiny_cfg():
    return encoder.PRESETS["tiny"]


@pytest.fixture(scope="session")
def tiny_weights(tiny_cfg):
    return encoder.init_weights(tiny_cfg, seed=0)


@pytest.fixture(scope="session")
def tiny_weights_f64(tiny_cfg):
    return encoder.init_weights(tiny_cfg, seed=0, dtype=np.float64)


@pytest.fixture(scope="session")
def verify_selftest():
    """One default ``falcon selftest`` (tiny preset, seed 0, verify mode on),
    shared by the tests that gate it: its exit code, stdout JSON and seconds."""
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.delenv("FALCON_SEED", raising=False)
        start = time.perf_counter()
        code = cli.main(["selftest"])
        elapsed = time.perf_counter() - start
    return code, json.loads(stdout.getvalue()), elapsed


@pytest.fixture()
def tiny_tiles(tiny_cfg):
    return oracle.fixture_tiles(tiny_cfg, 2, seed=0)


def random_tiles(cfg, n_tiles, seed):
    rng = np.random.default_rng(seed)
    return TileSet(rng.random((n_tiles + 1, cfg.tile, cfg.tile, 3), dtype=np.float32))


def make_ppm(path, h, w, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    path.write_bytes(write_ppm(img))
    return img
