"""Every step of `pins.py` against its line in `pins.sha256`."""

import hashlib
from pathlib import Path

import pytest

import pins

LINES = [line.split() for line in Path(__file__).with_name("pins.sha256").read_text().splitlines()]
PINNED = {name: digest for digest, name in LINES}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_one_line_per_step():
    assert sorted(name for _, name in LINES) == sorted(pins.STEPS)


@pytest.mark.parametrize("name", list(pins.STEPS))
def test_pin(name):
    assert name in PINNED, f"{name} has no line in pins.sha256"
    got = digest(pins.STEPS[name]())
    assert got == PINNED[name], f"{name}: output sha256 {got}, pinned {PINNED[name]}"


def test_crosscheck_repeats_in_one_process():
    """The catalog's complexes are shared, and so are the sweep tables they
    cache: a crosscheck after test_pin[crosscheck] must report the same
    bytes."""
    assert digest(pins.crosscheck()) == PINNED["crosscheck"]
