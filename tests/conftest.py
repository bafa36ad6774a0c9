"""Shared test helpers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

# numpy's AVX-512 kernels turned off, so the child runs its AVX2 paths
_WITHOUT_AVX512 = "AVX512_ICL AVX512_SPR X86_V4"


@pytest.fixture
def child_python():
    """``run(code, *args, avx512=True)``: run ``code`` with ``args`` in a
    fresh interpreter that imports avgsa from ``src/``, with numpy's
    AVX-512 kernels on (the machine's default) or off, and return its
    standard output; the test fails on a nonzero exit, showing stderr."""

    def run(code: str, *args, avx512: bool = True) -> str:
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
        if not avx512:
            env["NPY_DISABLE_CPU_FEATURES"] = _WITHOUT_AVX512
        done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
