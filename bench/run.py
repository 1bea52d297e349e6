#!/usr/bin/env python3
"""Seeded closed-loop benchmark of dimercorr.

    python3 bench/run.py --workload heisenberg-panel --seed 1 --seconds 20 --trace 0

One client in one process and one thread issues operations back to back:
CLI subcommands called in process through dimercorr.cli.main(argv), with
files in a scratch directory under bench/out/ and stdout captured, and, for
`powder`, a library call.  The seed draws the models; the program sees only
the generated argv and model parameters.

Workloads (see dimerbench/workloads.py for every setting):

  heisenberg-panel  64 models, J log-uniform on 0.05-50 meV, D = 0.
                    Per model: `sweep` (1 K to 4 J/kB, 300 steps) and
                    `critical`.  The closed-form path: loads cli and the
                    G-form correlations, bypasses gibbs_state and the
                    discord optimizer.
  soc-panel         6 models, J as above, D/J on 0.1-1.2.  Per model:
                    `sweep` (1 K to 4 J/kB, 10 steps, 11 rows) and
                    `critical`.  Nearly all time is in
                    classical_correlation_optimized, reached through the
                    sweep points and through the crossing scan and the
                    bisection predicates of `critical`.
  ins-roundtrip     32 models, J log-uniform on 1-20 meV, 8 of them with D/J
                    on 0.1-1.2.  Per model: `roundtrip` (synth to CSV, fit
                    that CSV, Tc from the fit; energy grid, width and T scale
                    as J/7.81 from 2-14 meV, 1 meV and 10 K), `iq` and
                    `powder` (cross_section averaged over 2000 stratified
                    directions at |Q| = 0.3, 0.8, 1.3, 1.9, 2.5 1/A).  Bypasses
                    the correlations layer.

Draws are stratified, so every cycle (the workload's fixed operation
sequence) holds the same mix; each cycle draws fresh models, so no cache
inside the program can serve a repeat.  A run repeats whole cycles for
about --seconds, at least one (a soc-panel cycle takes about 30 s).  Every
operation's output is checked against an independent oracle, outside the
timed interval (dimerbench/oracle.py: closed forms of the Bell-diagonal
thermal state and a cross section built from the Pauli matrices).
Failures the ROADMAP already names (items 3 and 4) count as known failures
in failed_frac, but only on inputs where the oracle says the defect
applies; anything else is an unexpected failure, reported as "failed" with
"correct": false.

The machines this runs on are shared and their speed swings by tens of per
cent within seconds and between minutes, so timed metrics are given at
reference speed: a fixed kernel (dimerbench/reference.py) runs every
0.1 s from a timer signal while a cycle runs (its own time is taken out of
the operations' latencies), and the cycle's operation time is rescaled by
the mean of those samples to the speed at which the kernel takes 1 ms.
Each sample is the median of 3 kernel runs.
The table also prints each value as measured.

--trace 0 reports the end-to-end metrics: setup_s (median over 10 fresh
processes, 5 before and 5 after the run, of importing dimercorr and
loading the shipped form factor), ops_per_s (operations completed, i.e.
checked correct, per second of operation time) and peak_rss_mib; it also
prints failed_frac and each operation kind's p50 and p90 latency with
sample counts.  --trace 1 runs half the time untraced, then cycle 1 again
traced, and reports per-layer metrics for that cycle and
trace.overhead_frac.  Results go to bench/out/; the last line of stdout is
the JSON result.
"""

import argparse
import os
import sys

# One BLAS thread: the benchmark is a single-threaded client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The program must see only the generated argv, not a stray config file.
os.environ.pop("DIMERCORR_CONFIG", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "dimercorr", "__init__.py")):
        print(f"bench: no dimercorr sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    from dimerbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    return harness.run(ROOT, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
