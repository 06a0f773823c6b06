#!/usr/bin/env python
"""The section-7 shoot-out: VMMC vs SHRIMP vs the other Myrinet layers.

Prints the related-work comparison the paper makes in sections 6 and 7:
ping-pong latency and streaming bandwidth of every communication system
in this repository on identical (simulated) hardware.  The numbers are
the `shrimp` and `related-work` campaigns' trials — the same cells
`python -m repro campaign run shrimp related-work` gates against the
paper and `python -m repro shootout` prints.

Run:  python examples/protocol_shootout.py
"""

from repro.bench import format_table
from repro.campaign.trials import related_work_trial, shrimp_trial


def main() -> None:
    sec6 = shrimp_trial({}, 0)["metrics"]
    sec7 = related_work_trial({}, 0)["metrics"]
    rows = [
        ("VMMC / Myrinet (this paper)", sec7["vmmc_lat_us"],
         sec7["vmmc_bw_mbps"], "zero-copy, protected, multi-process"),
        ("VMMC / SHRIMP", sec6["shrimp_latency_us"], sec6["shrimp_bw_mbps"],
         "hardware send initiation, EISA-limited"),
    ] + [
        (name, sec7[f"{key}_lat_us"], sec7[f"{key}_bw_mbps"], note)
        for key, name, note in [
            ("pm", "PM", "8KB units from pinned bufs; gang scheduling"),
            ("fm", "FM 2.0", "PIO sends, recv copy, single process"),
            ("am", "Active Messages",
             "request/reply handlers (no paper numbers)"),
            ("api", "Myrinet API", "stock library, copies, unreliable"),
        ]
    ]
    print(format_table(
        "Myrinet messaging layers on identical simulated hardware "
        "(sections 6-7)",
        ["system", "latency us", "stream MB/s", "notes"],
        [(name, f"{lat:.1f}", f"{bw:.1f}", note)
         for name, lat, bw, note in rows]))
    print("\npaper's qualitative orderings reproduced:")
    print("  latency:   PM < SHRIMP-VMMC < Myrinet-VMMC < FM << API")
    print("  bandwidth: PM (8K transfer units) > VMMC ~= 4KB-DMA hw limit;")
    print("             FM is PIO-bound (~33 MB/s); the stock API is both")
    print("             the slowest small-message layer and copy-limited")


if __name__ == "__main__":
    main()
