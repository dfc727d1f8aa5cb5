"""Shared fixtures for the experiment benchmarks.

Each experiment (T1-T5, F1-F7) lives in its own module, produces a
plain-text table under ``benchmarks/results/`` and asserts the paper's
claim about it; plain pytest runs them, no timing plugin (wall-clock
columns use a local ``time.perf_counter`` loop).

Timing experiments that need real cryptographic costs run on BN254; shape
experiments (rounds, storage, message counts, bias rates) run on the toy
backend where group operations are negligible.
"""

import pathlib
import random

import pytest

from repro.bench.tables import Table
from repro.groups import get_group

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "bn254: tests that run on the real BN254 pairing (slow)")


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_table(results_dir):
    def _save(table: Table, name: str) -> str:
        text = table.render()
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        return text
    return _save


@pytest.fixture(scope="session")
def toy_group():
    return get_group("toy")


@pytest.fixture(scope="session")
def bn254_group():
    return get_group("bn254")


@pytest.fixture
def rng(session_seed):
    """Per-test randomness; ``--seed N`` reseeds the benchmarks too."""
    return random.Random(0xBEEF if session_seed is None else session_seed)


@pytest.fixture(scope="session")
def sim_seed(session_seed):
    """Seed for the F7 simulation scenarios (``2026`` unless ``--seed``
    is given); the committed tables are rendered with the default."""
    return 2026 if session_seed is None else session_seed
