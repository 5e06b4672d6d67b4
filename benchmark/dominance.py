#!/usr/bin/env python3
"""The dominance table of README.md, from one traced set.

Reads benchmark/out/trace_<workload>.json (written by `--trace 1`) and
prints, per workload, each span's share of the assembled interval's self
time, and for the live workload each span's share of MU 0 and MU 1's tick.

    python3 benchmark/dominance.py        # from the repo root, after a traced set
"""
import json
import os

WORKLOADS = ["workaholic_ts", "sleeper_sig", "at_churn", "boxed_query_bounded",
             "live_lockstep_ts", "paper_grid"]
# What the assembled loop times, by layer; `assembled.interval` is its own glue.
ASSEMBLED = ["client.query_gen", "client.report_apply", "client.install", "client.sleep_draw",
             "server.update_apply", "server.report_build", "server.uplink_answer", "server.log_prune",
             "wireless.channel_charge", "wireless.frame_encode", "wireless.frame_decode",
             "query.plane", "assembled.interval"]


def shares(totals, names):
    whole = sum(totals.get(n, {}).get("self_ns", 0) for n in names)
    return {n: 100.0 * totals.get(n, {}).get("self_ns", 0) / whole if whole else 0.0 for n in names}


def main():
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    totals = {}
    for w in WORKLOADS:
        with open(os.path.join(out, f"trace_{w}.json")) as f:
            totals[w] = json.load(f)["totals"]

    print("Share of the assembled interval (% of self time), per workload:\n")
    print("| span | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---:|" * len(WORKLOADS))
    by_workload = {w: shares(totals[w], ASSEMBLED) for w in WORKLOADS}
    for name in ASSEMBLED:
        print(f"| `{name}` | " + " | ".join(f"{by_workload[w][name]:.1f}" for w in WORKLOADS) + " |")
    for layer in ["client", "server", "wireless", "query"]:
        print(f"| **{layer}.\\*** | " + " | ".join(
            f"**{sum(v for n, v in by_workload[w].items() if n.startswith(layer + '.')):.1f}**"
            for w in WORKLOADS) + " |")

    live = sorted(n for n in totals["live_lockstep_ts"] if n.startswith("live."))
    print("\nShare of the live tick (% of the MU threads' self time, live_lockstep_ts):\n")
    print("| span | share |")
    print("|---|---:|")
    for name, share in shares(totals["live_lockstep_ts"], live).items():
        print(f"| `{name}` | {share:.1f} |")
    for w in WORKLOADS:
        if w != "live_lockstep_ts" and any(n.startswith("live.") for n in totals[w]):
            raise SystemExit(f"{w} recorded a live.* span")


if __name__ == "__main__":
    main()
