"""The README's library example runs as written, and its CLI section names
every option of every subcommand, and no option that none of them takes."""

import argparse
import re
from pathlib import Path

from bestprox import GeneratorConfig, brute_force_solve, generate_instance, save_instance
from bestprox.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The body of the README section titled ``title``."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def python_block(title: str) -> str:
    """The first ```python block of the README section titled ``title``."""
    return re.search(r"```python\n(.*?)```", section(title), re.S).group(1)


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


def subcommand_options() -> dict:
    """{subcommand: its option strings}, argparse's own -h/--help aside."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {option for action in parser._actions if action.dest != "help" for option in action.option_strings}
        for name, parser in commands.choices.items()
    }


def test_the_cli_section_names_every_option():
    # Each option string of each subcommand appears in the CLI section as a
    # whole token.
    body = section("CLI")
    missing = [
        (name, option)
        for name, options in subcommand_options().items()
        for option in sorted(options)
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", body)
    ]
    assert not missing


def test_every_option_the_cli_section_names_exists():
    # Each --flag token of the CLI section is an option of some subcommand,
    # so a removed flag cannot stay documented.
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section("CLI")))
    assert named
    assert not named - set().union(*subcommand_options().values())
