"""CSV export of measurement results.

The repository renders its artifacts as text (no plotting dependency),
but downstream users will want the raw series for their own tooling.
These helpers write standard CSV with a stable column layout:

- :func:`export_probe` — one row per delivered packet, with the
  three-source latency decomposition;
- :func:`export_histogram` — a rendered histogram's bins;
- :func:`export_series` — generic {x: [samples]} sweeps (e.g. Fig 5).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.stats import Histogram
from repro.net.probes import LatencyProbe
from repro.phy.timebase import us_from_tc

__all__ = ["export_probe", "export_histogram", "export_series"]


def export_probe(probe: LatencyProbe, path: str | Path) -> int:
    """Write one row per delivered packet, in delivery order; returns
    the row count."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow((
            "packet_id", "ue_id", "latency_us",
            "protocol_us", "processing_us", "radio_us",
            "harq_retransmissions",
        ))
        for row in zip(probe.packet_id, probe.ue_id, probe.latency_tc,
                       probe.protocol_tc, probe.processing_tc,
                       probe.radio_tc, probe.harq_retx):
            packet_id, ue_id, *times_tc, retx = row
            writer.writerow((packet_id, ue_id,
                             *(f"{us_from_tc(tc):.3f}" for tc in times_tc),
                             retx))
    return len(probe)


def export_histogram(histogram: Histogram, path: str | Path,
                     x_label: str = "bin_center") -> int:
    """Write a histogram's bins; returns the bin count."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow((x_label, "probability"))
        for center, probability in zip(histogram.bin_centers,
                                       histogram.probabilities):
            writer.writerow((f"{center:.6g}", f"{probability:.6g}"))
    return len(histogram.probabilities)


def export_series(series: Mapping[object, Sequence[float]],
                  path: str | Path,
                  x_label: str = "x", y_label: str = "y") -> int:
    """Write an {x: [samples]} sweep long-form; returns the row count."""
    path = Path(path)
    rows = 0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow((x_label, y_label))
        for x_value, samples in series.items():
            for sample in samples:
                writer.writerow((x_value, f"{sample:.6g}"))
                rows += 1
    return rows
