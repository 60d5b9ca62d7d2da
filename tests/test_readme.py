"""The README's library example runs as written."""

import re
from pathlib import Path

from bestprox import GeneratorConfig, brute_force_solve, generate_instance, save_instance

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(section: str) -> str:
    """The first ```python block of the README section titled ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_the_library_example_runs(tmp_path, monkeypatch):
    # The instance of the README's own `generate` line, as out.json in the
    # working directory, where the example loads it.
    inst = generate_instance(GeneratorConfig(seed=7, alpha_target=0.6, a_size=40))
    save_instance(inst, tmp_path / "out.json")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(python_block("Library"), str(README), "exec"), names)
    res = names["res"]
    assert res.guaranteed
    assert res.index in brute_force_solve(inst.pair, inst.t_map).argmin_indices
