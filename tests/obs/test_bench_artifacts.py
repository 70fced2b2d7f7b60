"""Every benchmark artefact a doc or bench names is committed and loads."""

import pathlib
import re

import pytest

from repro.obs import load_bench_json

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"
ARTEFACT_NAME = re.compile(r"BENCH_\w+\.json")


def _sources():
    yield ROOT / "README.md"
    yield ROOT / "EXPERIMENTS.md"
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield from sorted((ROOT / "benchmarks").glob("*.py"))


def _named_artefacts() -> dict:
    """Artefact file name -> the sources that name it."""
    named: dict = {}
    for source in _sources():
        for name in ARTEFACT_NAME.findall(source.read_text(encoding="utf-8")):
            named.setdefault(name, []).append(source.relative_to(ROOT).as_posix())
    return named


NAMED = _named_artefacts()


def test_docs_name_some_artefacts():
    assert "BENCH_core_engine.json" in NAMED


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_artefact_exists_and_loads(name):
    path = RESULTS / name
    assert path.is_file(), f"{name} is named by {NAMED[name]} but not committed"
    payload = load_bench_json(path)
    assert payload["rows"], f"{name} has no rows"
