"""Every scan strategy against the pin in ``tests/data/scan_golden.json``.

See :mod:`tests.scan_golden` for the matrix and what is pinned.  A
mismatch here means a scan's ``CostEvents``, output bytes, block count
or corruption report moved; regenerate the pin (``make scan-golden``)
only when that move is the point of the change.
"""

from __future__ import annotations

import json

import pytest

from tests.scan_golden import GOLDEN_PATH, build_cases

CASES = build_cases()
GOLDEN = json.loads(GOLDEN_PATH.read_text())
#: ``clean/row``, ``salvage/fused``, ``shared/COLUMN``, ``index/z``, ...
GROUPS = sorted({"/".join(case_id.split("/")[:2]) for case_id in CASES})


def test_matrix_and_pin_name_the_same_cases():
    assert len(CASES) >= 480
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("group", GROUPS)
def test_scans_match_the_pin(group):
    mismatches = {}
    for case_id, run in CASES.items():
        if not case_id.startswith(group + "/"):
            continue
        # Through JSON so tuples/ints compare as the pin stores them.
        got = json.loads(json.dumps(run()))
        if got != GOLDEN[case_id]:
            mismatches[case_id] = {
                key: (GOLDEN[case_id].get(key), got.get(key))
                for key in GOLDEN[case_id].keys() | got.keys()
                if GOLDEN[case_id].get(key) != got.get(key)
            }
    assert not mismatches, f"(pinned, got) per moved field: {mismatches}"
