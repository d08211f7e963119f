"""Paths shared by the benchmark scripts, and the import of the package
from this checkout's own source tree."""

from __future__ import annotations

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(HERE, "fixtures")
OUT = os.path.join(ROOT, ".perfbench_out")


class CheckoutError(RuntimeError):
    """The checkout does not hold the program's source."""


def import_quantmeu():
    """Import quantmeu from ``<checkout>/src`` and nowhere else.

    An installed copy of the package would measure other code than the
    checkout holds, so anything but this tree's source is an error.
    """
    init = os.path.join(SRC, "quantmeu", "__init__.py")
    if not os.path.isfile(init):
        raise CheckoutError(f"no package source at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module = importlib.import_module("quantmeu")
    if os.path.realpath(module.__file__) != os.path.realpath(init):
        raise CheckoutError(f"quantmeu imported from {module.__file__}, not {init}")
    return module


def git_commit():
    """Commit of the checkout read from ``.git``, or None outside a git clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None
