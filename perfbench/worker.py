"""One cold benchmark process: set up, optionally run one pass, report JSON.

``run.py`` starts a fresh interpreter running this file for every set-up
sample and every pass, so each measures a cold start.  Modes:

* ``setup``: imports and set-up only (what ``setup_s`` times from outside);
* ``pass``: set-up, then one timed pass, then its output checks;
* ``pass --trace``: the layer tracer is installed before set-up and the
  spans go to ``--spans`` as JSON.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    parser.add_argument("--mode", required=True, choices=("setup", "pass"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    case = cases.CASES[args.workload](args.small)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.install(f"{args.workload}:seed={args.seed}")
    case.setup()
    if args.mode == "setup":
        print("{}")
        return 0

    start = time.perf_counter()
    result = case.run(args.seed)
    wall_s = time.perf_counter() - start
    report = {"wall_s": wall_s}
    if tracer is not None:
        tracer.finish()
    outcome = case.check(result)
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.update(attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems[:20])
    if tracer is not None:
        metrics = layers.per_layer_metrics(tracer, outcome.counts)
        report.update(per_layer=metrics, traced_wall_s=tracer.wall_s(),
                      self_s=tracer.self_s)
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload,
                                      "seed": args.seed, "per_layer": metrics,
                                      "self_s": report["self_s"]})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
