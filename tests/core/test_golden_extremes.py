"""Golden exact extremes over every expressible Common Configuration.

For each of the 82 configurations ``enumerate_common_configurations``
yields at µ=2 (period ≤ 2.5 ms, the ``sweep`` campaign's points), the
file ``data/golden_extremes.json`` records ``(worst_tc,
worst_arrival_tc, best_tc, best_arrival_tc)`` for DL, grant-free UL and
grant-based UL, or ``null`` where ``LatencyModel.extremes`` raises
``LookupError`` (no window in that direction).  The arrival ticks pin
the tie-break order of the critical-arrival scan, which the
brute-force oracle tests do not see.

Regenerate (only for a deliberate model change) with::

    PYTHONPATH=src python tests/core/test_golden_extremes.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.design_space import enumerate_common_configurations
from repro.core.latency_model import LatencyModel
from repro.mac.types import AccessMode, Direction

GOLDEN = Path(__file__).parent / "data" / "golden_extremes.json"

ROWS = (
    ("dl", Direction.DL, AccessMode.GRANT_FREE),
    ("ul_grant_free", Direction.UL, AccessMode.GRANT_FREE),
    ("ul_grant_based", Direction.UL, AccessMode.GRANT_BASED),
)


def golden_records() -> list[dict]:
    records = []
    for config in enumerate_common_configurations(mu=2, max_period_ms=2.5):
        (pattern,) = config.patterns
        record: dict = {
            "name": config.name,
            "pattern": [str(pattern.period_ms), pattern.dl_slots,
                        pattern.dl_symbols, pattern.ul_symbols,
                        pattern.ul_slots],
        }
        model = LatencyModel(config)
        for key, direction, access in ROWS:
            try:
                e = model.extremes(direction, access)
            except LookupError:
                record[key] = None
                continue
            record[key] = [e.worst_tc, e.worst_arrival_tc,
                           e.best_tc, e.best_arrival_tc]
        records.append(record)
    return records


def render(records: list[dict]) -> str:
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
    return f"[\n{lines}\n]\n"


def test_extremes_match_golden_for_every_common_configuration():
    records = golden_records()
    assert len(records) == 82
    assert records == json.loads(GOLDEN.read_text())


def test_golden_file_is_canonical():
    text = GOLDEN.read_text()
    assert text == render(json.loads(text))


if __name__ == "__main__":
    GOLDEN.write_text(render(golden_records()))
