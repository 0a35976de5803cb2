#!/usr/bin/env python3
"""Windowed tail monitoring against a live quantile server.

Run::

    python examples/windowed_monitoring.py [--n 240000]

The operational version of the paper's motivating scenario, now on the
service's windowed plane: timestamped values ingest into a per-key ring
of time-bucketed sketches, a SUBSCRIBE stream pushes each closed bucket
to the dashboard, any time horizon is answered from the weighted
union of its bucket sketches (Theorem 3), and a tail-regression alert fires from the
pushed per-bucket p99s.  The synthetic stream stages an incident: calm
traffic, a slowdown regime, recovery.
"""

from __future__ import annotations

import argparse
import statistics

import numpy as np

from repro.service import QuantileClient, QuantileService, ServerThread
from repro.streams import regime_switching

BUCKET = 10.0  # seconds per window bucket
KEY = "edge/latency"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=240_000, help="total requests")
    parser.add_argument("--windows", type=int, default=12, help="number of windows")
    parser.add_argument(
        "--baseline",
        type=int,
        default=3,
        help="closed windows forming the tail-shift baseline",
    )
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()

    # Calm -> incident (10x median) -> recovery, in three equal regimes,
    # with one timestamp per request: the incident occupies wall-clock
    # buckets, not array slices.
    values = regime_switching(
        args.n, seed=args.seed, medians=(0.12, 1.2, 0.12), sigma=0.45
    )
    span = args.windows * BUCKET
    timestamps = np.arange(args.n) * (span / args.n)
    per_window = args.n // args.windows

    service = QuantileService(
        None,
        window_resolutions=(BUCKET,),
        window_retention=args.windows + 4,
        seed=args.seed,
    )
    with ServerThread(service) as running:
        with QuantileClient(port=running.port) as writer, QuantileClient(
            port=running.port
        ) as watcher:
            # Ship one batch per window — each batch's watermark closes
            # the previous bucket server-side.
            for start in range(0, args.n, per_window):
                stop = start + per_window
                writer.ingest_windowed(
                    KEY, timestamps[start:stop], values[start:stop]
                )

            print(
                f"{args.n:,} requests in {args.windows} windows of "
                f"{BUCKET:.0f}s ({per_window:,} each)\n"
            )
            print(
                f"{'bucket':>7} {'p50 (s)':>9} {'p99 (s)':>9} "
                f"{'tail-shift':>11}  alert?"
            )

            # SUBSCRIBE replays every retained closed bucket before going
            # live; the final window is still open, so read one fewer.
            events = watcher.subscribe(KEY, [0.5, 0.99])
            closed_p99 = []
            for _ in range(args.windows - 1):
                event = next(events)
                p50, p99 = float(event.values[0]), float(event.values[1])
                if len(closed_p99) >= args.baseline:
                    shift = p99 / statistics.median(closed_p99[-args.baseline :])
                    shift_text, alert = f"{shift:.2f}x", shift > 2.0
                else:
                    shift_text, alert = "warming", False
                closed_p99.append(p99)
                print(
                    f"{event.index:>7} {p50:>9.3f} {p99:>9.3f} "
                    f"{shift_text:>11}  {'<-- ALERT' if alert else ''}"
                )

            # One batch past the stream's end closes the last bucket; the
            # subscription *pushes* it — no polling.
            writer.ingest_windowed(KEY, [span + 1.0], [0.1])
            event = next(events)
            print(
                f"{event.index:>7} {float(event.values[0]):>9.3f} "
                f"{float(event.values[1]):>9.3f} {'(live push)':>11}"
            )
            events.close()

            print("\nhorizon views (union-on-query over the bucket ring):")
            for label, kwargs in (
                (
                    f"last {args.baseline} windows",
                    dict(last=f"{int(args.baseline * BUCKET)}s", now=span),
                ),
                ("all windows", dict(start=0.0, end=span)),
            ):
                result = writer.query_horizon(KEY, [0.5, 0.99, 0.999], **kwargs)
                p50, p99, p999 = (float(v) for v in result.quantiles)
                print(
                    f"  {label:<16} n={result.n:>9,}  p50={p50:.3f}s  "
                    f"p99={p99:.3f}s  p99.9={p999:.3f}s  "
                    f"(±{result.error_bound:.3%} rank error)"
                )

            stats = writer.stats()["windowed"]
            print(
                f"\nspace: {stats['retained_items']:,} retained items in "
                f"{stats['buckets']} buckets "
                f"({100 * stats['retained_items'] / (args.n + 1):.2f}% of the "
                f"raw stream); expired buckets fall off the ring, and any\n"
                f"time horizon is answerable from the buckets — no raw data kept "
                f"anywhere."
            )


if __name__ == "__main__":
    main()
