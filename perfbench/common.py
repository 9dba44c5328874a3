"""What every workload module shares."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """The environment for a child process: this checkout's `lhc` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Op:
    """One timed operation.  `run` returns its output; `keep` turns that
    into what the checks need, outside the timing."""

    name: str
    size: str  # "large" or "small": which end-to-end metric it adds to
    run: Callable[[], object]
    keep: Callable[[object], object] = lambda out: out
    in_child: bool = False
