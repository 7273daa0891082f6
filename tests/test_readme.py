import importlib
import pkgutil
import re
from pathlib import Path

import falcon

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


MODULES = [m.name for m in pkgutil.iter_modules(falcon.__path__)]


def test_cited_names_resolve():
    # Every `module.name` (or `falcon.module.name`) in README's inline code
    # is an attribute of that module, so a contract cannot name a deleted one.
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    cited = re.compile(r"(?<![\w.])(?:falcon\.)?(" + "|".join(MODULES) + r")((?:\.[A-Za-z_]\w*)+)")
    names = {m.groups() for span in re.findall(r"`([^`]+)`", prose) for m in cited.finditer(span)}
    assert len(names) >= 40
    for module, path in sorted(names):
        obj = importlib.import_module(f"falcon.{module}")
        for attr in path[1:].split("."):
            assert hasattr(obj, attr), f"README cites {module}{path}"
            obj = getattr(obj, attr)
