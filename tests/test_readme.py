import re
from pathlib import Path

from conftest import make_ppm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(tmp_path, monkeypatch):
    # README's one Python block runs as written, on a photo.ppm in the
    # working directory, and returns the register rows it says it does.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    make_ppm(tmp_path / "photo.ppm", 96, 64, seed=1)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(block, scope)
    cfg, plan = scope["cfg"], scope["plan"]
    assert scope["f_hr"].shape == (cfg.registers * (plan.n_tiles + 1), cfg.width)
