"""One set-up: import linkscope, generate a workload's inputs from the seed
and write them to files.

    PYTHONPATH=src:. python3 -m perfbench.inputs --workload place --seed 1 --count 300 --out DIR

writes DIR/manifest.json and, for the CLI workloads, one graph file (and one
weights file for identify) per instance.  run.py times whole runs of this
module in fresh interpreters to measure set-up.
"""

from __future__ import annotations

import argparse
import json
import os

import linkscope  # noqa: F401  (set-up includes importing the package)

from perfbench import gen


def _graph_text(n: int, edges) -> str:
    return f"nodes: {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def write_inputs(workload: str, seed: int, count: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    if workload == "scan":
        instances = gen.scan_instances(seed, count)
    elif workload == "place":
        instances = gen.place_instances(seed, count)
    elif workload == "identify":
        instances = gen.identify_instances(seed, count)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "scan":
        for i, inst in enumerate(instances):
            inst["graph"] = f"g{i}.txt"
            with open(os.path.join(out, inst["graph"]), "w", encoding="utf-8") as fh:
                fh.write(_graph_text(inst["n"], inst["edges"]))
            if workload == "identify":
                inst["weights_file"] = f"w{i}.txt"
                with open(os.path.join(out, inst["weights_file"]), "w", encoding="utf-8") as fh:
                    fh.writelines(
                        f"{u} {v} {w}\n" for (u, v), w in zip(inst["edges"], inst["weights"])
                    )
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "instances": instances}, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.count, args.out)


if __name__ == "__main__":
    main()
