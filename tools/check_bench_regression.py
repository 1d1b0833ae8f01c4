#!/usr/bin/env python3
"""Diff BENCH_*.json artifacts against committed baselines.

Usage:
    check_bench_regression.py --baseline-dir bench/baselines BENCH_*.json

Each bench JSON holds flat records; records are matched between the new run
and the baseline by their identity fields (solver, grid coordinates, label,
...). For every shared numeric metric the check fails when the new value
regresses by more than the metric's tolerance relative to the baseline:

  * lower-is-better metrics (iterations, nodes, refactorizations) fail when
    new > baseline * (1 + tol);
  * higher-is-better metrics (retained, recall, lambda, diversity) fail
    when new < baseline * (1 - tol);
  * wall-clock metrics use a much looser tolerance — CI machines vary — and
    objective_mismatches must stay 0.

Baselines are recorded at small scale (PRIVSAN_BENCH_SCALE=small); a run at
a different scale is skipped, not compared. Records present in only one
side are reported but do not fail the check (grids grow across PRs).
"""

import argparse
import json
import os
import sys

# Fields that identify a record rather than measure it.
IDENTITY_FIELDS = {
    "record", "label", "solver", "part", "mode", "e_eps", "delta", "support",
    "output_size", "pairs", "users", "cells", "tenants", "batches", "rows",
    "clients",
}

DEFAULT_TOL = 0.25
# metric -> (direction, tolerance); direction "low" = lower is better.
METRIC_RULES = {
    "seconds": ("low", 3.0),
    "warm_seconds": ("low", 3.0),
    "cold_seconds": ("low", 3.0),
    "lambda": ("high", DEFAULT_TOL),
    "retained": ("high", DEFAULT_TOL),
    "cold_retained": ("high", DEFAULT_TOL),
    "warm_retained": ("high", DEFAULT_TOL),
    "recall": ("high", DEFAULT_TOL),
    "precision": ("high", DEFAULT_TOL),
    "diversity_ratio": ("high", DEFAULT_TOL),
    "warm_solves": ("high", DEFAULT_TOL),
    # Serve-path metrics (bench_serve_throughput). The speedup is a ratio
    # of two times measured back-to-back on the same machine, so it is far
    # more stable than an absolute rate; the warm-start flag must simply
    # never regress to 0.
    "speedup": ("high", 0.6),
    "rows_copied": ("high", DEFAULT_TOL),
    "restored_warm_started": ("high", 0.0),
    # Distributed cluster bench (bench_distributed_throughput). The
    # aggregate rate crosses two real processes, so it is noisier than the
    # in-process rates — same loose tolerance as speedup. A migrated
    # tenant resuming cold is a correctness regression, zero tolerance.
    "agg_solves_per_sec": ("high", 0.6),
    "migrated_warm_started": ("high", 0.0),
    # A warm repair aborting to a cold solve at small scale means the
    # warm-start path regressed outright (the cap is 4m + 1000 there);
    # zero tolerance. (basis_repairs intentionally has no rule: a repair
    # firing is the feature working, not a regression.)
    "repair_aborted": ("low", 0.0),
    # Windowed-stream workload (same bench, PR 10). The tick counts are
    # deterministic for the fixed dataset: fewer users removed means the
    # removal path silently skipped work, and a post-removal solve falling
    # back cold means the basis down-remap regressed — zero tolerance on
    # both. rows_patched_on_remove counts DP rows the removal reused
    # instead of recomputing (higher is better, like rows_copied). A
    # budget refusal with the bench's generous budget is an accountant
    # regression outright.
    "users_removed": ("high", 0.0),
    "rows_patched_on_remove": ("high", DEFAULT_TOL),
    "remove_warm_started": ("high", 0.0),
    "budget_refusals": ("low", 0.0),
    # Factorization microbench (bench_micro_factorization): fill is
    # deterministic for the fixed rng seed, so a growing LU nnz is a real
    # ordering regression, not noise.
    "nnz": ("low", DEFAULT_TOL),
    "updated_nnz": ("low", DEFAULT_TOL),
    # Update-run records (same bench): u_nnz is the nonzeros an update run
    # adds on top of the fresh factors — the Forrest–Tomlin scheme exists
    # to keep it near the spike fill, so growth is a real update-kernel
    # regression. update_run_len is how many updates the
    # default growth policy sustains before refactorizing; shrinking runs
    # mean the retuned refactorization trigger lost its headroom.
    "u_nnz": ("low", DEFAULT_TOL),
    "update_run_len": ("high", DEFAULT_TOL),
    # Distances: smaller is better utility-wise.
    "distance_sum": ("low", DEFAULT_TOL),
    "distance_sum_lp": ("low", DEFAULT_TOL),
    "distance_sum_rounded": ("low", DEFAULT_TOL),
    "avg_distance": ("low", DEFAULT_TOL),
    "objective_mismatches": ("low", 0.0),
}
# Everything else numeric (iterations, nodes, refactorizations, ...) is
# treated as lower-is-better effort at the default tolerance.
DEFAULT_RULE = ("low", DEFAULT_TOL)

# Reported but never gated: proven_optimal flips with the B&B wall-clock
# budget, so on a slower runner a drop is machine variance, not regression.
# solves_per_sec: sub-millisecond cached passes make absolute rates pure
# scheduler noise on shared runners; the paired seconds/iteration metrics
# carry the gated signal. mean_first_solve_ms / background_flush_speedup:
# the mixed-workload latency comparison is meaningful at medium scale but
# dominated by scheduler jitter at the small CI scale.
IGNORED_METRICS = {
    "proven_optimal", "solves_per_sec", "mean_first_solve_ms",
    "background_flush_speedup",
    # scaling_ratio only means something with enough cores to run two
    # backends in parallel; the bench itself gates it when the hardware
    # suffices, so the checker treats both as machine facts, not metrics.
    "scaling_ratio", "hardware_concurrency",
}

# Latency percentiles are reported-only: tail percentiles over a handful of
# samples on a shared runner measure the machine, not the code. The paired
# iteration/row-count metrics carry the gated signal.
REPORTED_ONLY_SUFFIXES = ("_p50", "_p95", "_p99")


def reported_only(name):
    return name in IGNORED_METRICS or name.endswith(REPORTED_ONLY_SUFFIXES)

# Effort metrics can legitimately be tiny; skip noise-dominated comparisons.
ABSOLUTE_FLOOR = 64


def record_key(record):
    return tuple(sorted(
        (k, v) for k, v in record.items() if k in IDENTITY_FIELDS))


def compare_metric(name, baseline, new):
    """Returns an error string, or None if the metric is within tolerance."""
    direction, tol = METRIC_RULES.get(name, DEFAULT_RULE)
    if name == "objective_mismatches":
        if new > baseline:
            return f"{name}: {new:g} vs baseline {baseline:g} (must not grow)"
        return None
    # Additive slack around the baseline: the relative tolerance, plus an
    # absolute floor so near-zero baselines (FP noise, tiny effort counts)
    # don't produce spurious or impossible limits.
    slack = tol * abs(baseline)
    if name.endswith("seconds"):
        slack += 0.25  # sub-second cells are timer noise on shared runners
    else:
        slack += ABSOLUTE_FLOOR if name not in METRIC_RULES else 1e-6
    if direction == "low":
        limit = baseline + slack
        if new > limit:
            return (f"{name}: {new:g} vs baseline {baseline:g} "
                    f"(limit {limit:g})")
    else:
        limit = baseline - slack
        if new < limit:
            return (f"{name}: {new:g} vs baseline {baseline:g} "
                    f"(limit {limit:g})")
    return None


def check_file(new_path, baseline_path):
    with open(new_path) as f:
        new_doc = json.load(f)
    with open(baseline_path) as f:
        base_doc = json.load(f)

    if new_doc.get("scale") != base_doc.get("scale"):
        print(f"  SKIP {new_path}: scale {new_doc.get('scale')!r} vs "
              f"baseline {base_doc.get('scale')!r}")
        return []

    base_records = {record_key(r): r for r in base_doc.get("records", [])}
    errors = []
    matched = 0
    for record in new_doc.get("records", []):
        base = base_records.get(record_key(record))
        if base is None:
            continue
        matched += 1
        for name, value in record.items():
            if name in IDENTITY_FIELDS or reported_only(name) \
                    or name not in base:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            error = compare_metric(name, float(base[name]), float(value))
            if error:
                errors.append(f"{os.path.basename(new_path)} "
                              f"{dict(record_key(record))}: {error}")
    print(f"  {os.path.basename(new_path)}: {matched} records matched, "
          f"{len(errors)} regressions")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("bench_json", nargs="+")
    args = parser.parse_args()

    all_errors = []
    compared = 0
    for new_path in args.bench_json:
        baseline_path = os.path.join(args.baseline_dir,
                                     os.path.basename(new_path))
        if not os.path.exists(baseline_path):
            print(f"  NEW {new_path}: no baseline, skipping")
            continue
        compared += 1
        all_errors.extend(check_file(new_path, baseline_path))

    if all_errors:
        print(f"\n{len(all_errors)} bench regression(s) beyond tolerance:")
        for error in all_errors:
            print(f"  REGRESSION {error}")
        return 1
    print(f"\nbench check OK ({compared} file(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
