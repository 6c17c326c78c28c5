"""README stays true to the CLI: every `mhcr` command of its bash blocks
parses and, for `train` and `sweep`, builds its config and grid; every row
of its ablation table gives its listed label."""

import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from mhcr import cli
from mhcr.training import TrainConfig, variant_label

from ablations import ABLATIONS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_commands() -> list[list[str]]:
    """argv of each `mhcr` command in README's bash blocks, with `\\`
    continuations joined and comments dropped."""
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", README, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["mhcr"]:
                commands.append(argv[1:])
    return commands


def ablation_rows() -> dict[str, tuple[list[str], str]]:
    """Ablation -> (its flags, its label) of each row of README's table."""
    rows = {}
    for line in README.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            name, _, flags, label = (" ".join(re.findall(r"`([^`]*)`", c)) for c in cells)
            rows[name] = (shlex.split(flags), label)
    return rows


def test_readme_shows_every_command():
    assert {argv[0] for argv in readme_commands()} == {"generate", "train", "evaluate", "sweep"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    args = cli.build_parser().parse_args(argv)
    if args.command in ("train", "sweep"):
        cli._train_config(args)
    if args.command == "sweep":
        cli._parse_grid(args.grid or cli._DEFAULT_GRID)


def test_ablation_table_lists_every_ablation():
    assert list(ablation_rows()) == list(ABLATIONS)


@pytest.mark.parametrize("name", list(ABLATIONS))
def test_ablation_row_gives_its_label(name):
    flags, label = ablation_rows()[name]
    cfg, _ = cli._train_config(cli.build_parser().parse_args(["train", "--data-dir", "x", *flags]))
    assert cfg == replace(TrainConfig(), **ABLATIONS[name])
    assert variant_label(cfg) == label
