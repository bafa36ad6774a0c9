"""README.md checks: the dotted names it cites exist, and its prose lines
stay short enough to read in a terminal."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _resolve(dotted: str):
    """The object ``dotted`` names: the longest importable module prefix,
    then attributes for the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_dotted_avgsa_name_resolves():
    names = sorted(set(re.findall(r"\bavgsa(?:\.\w+)+", README.read_text())))
    assert names
    unresolved = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []


def test_no_prose_line_is_longer_than_120_characters():
    long_lines, fenced = [], False
    for number, line in enumerate(README.read_text().splitlines(), 1):
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and len(line) > 120:
            long_lines.append((number, len(line)))
    assert long_lines == []
