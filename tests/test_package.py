"""The package surface: what `from pathpoly import *` hands out."""
from __future__ import annotations

import pathpoly


def test_all_names_resolve_without_duplicates():
    assert len(pathpoly.__all__) == len(set(pathpoly.__all__))
    missing = [name for name in pathpoly.__all__ if not hasattr(pathpoly, name)]
    assert missing == []
