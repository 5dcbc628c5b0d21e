"""End-to-end benchmark: serving, training and the 1M-client fleet.

    python3 e2ebench/run.py --workload serve-mood --seed 1 --seconds 10 --trace 0

Workloads: serve-mood, serve-burst, train-mood, fleet-1m (see
e2ebench/README.md).  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the per-layer metrics.
Prints one report line (host fingerprint, set-up samples, sample
counts, output checks) and then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when an
output check fails.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    # One thread per workload: pin BLAS before anything imports numpy.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = BLAS_THREADS
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error("unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(harness.WORKLOADS)))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, report = harness.run(spec, args.workload, args.seed,
                                 args.seconds, bool(args.trace),
                                 tiny=args.tiny)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
