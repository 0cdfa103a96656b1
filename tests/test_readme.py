"""The README's config and quickstart run as written, so they cannot drift from the code."""

import json
from pathlib import Path

from disruptkit.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block under a README heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_config_file_example_parses():
    cfg = parse_config(json.loads(_block("### Config file", "json")))
    assert cfg.attack_model_names() == ("vec_a", "refiner_a")
    assert parse_config(json.loads(json.dumps(cfg.normalized()))) == cfg


def test_library_quickstart_runs():
    exec(compile(_block("## Library quickstart", "python"), "README.md", "exec"), {})
