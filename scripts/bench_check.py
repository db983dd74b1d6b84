#!/usr/bin/env python3
"""CI bench-trend gate: validate that every BENCH_*.json artifact
shares the bench schema, and (when a baseline is available) that
throughput has not regressed against the previous run's artifacts.

All four measured harnesses (`vpm bench-collector`, `vpm bench-wire`,
`vpm bench-verifier`, `vpm bench-audit`) serialize the same shape so
the artifacts can be tracked as one performance trajectory:

    {
      "config":  { ... workload shape ... },
      "results": [ { "name": "<variant>", <numeric throughput fields> }, ... ],
      <numeric summary fields: speedups, ratios, sizes>
    }

Schema gate (always on) — fails (exit 1) when a required key is
missing, a variant has no throughput field, any value that must be
numeric is missing, non-numeric, or non-finite, or variant names
collide. `BENCH_collector.json` must carry the SIMD-vs-scalar digest
rows and the 100k-path regime (`classify_paper_scale` /
`ingest_paper_scale`), plus the `simd_digest_speedup` summary: the
current architecture's ceilings are part of the collector bench's
contract.
`BENCH_wire.json` must additionally carry the signed-frame
variants (`encode_signed_*` / `verify_signed_*`) and the HMAC kernel
rows (`hmac_portable` / `hmac_dispatch`): the authenticity plane and
its cost are part of the wire bench's contract, not an optional extra.
`BENCH_verifier.json` must carry the idle-consumer summaries
(`idle_*_polls_per_publish` / `idle_poll_reduction`): blocking waits
vs spin-polls is part of the verifier bench's contract.
`BENCH_audit.json` must carry the continuous-operation variants
(streaming audit, GC reclaim, checkpoint codec both ways) and the
GC/checkpoint summaries: bounded memory is part of the audit bench's
contract.

Trend gate (`--baseline DIR`) — DIR is searched recursively for a file
with the same basename as each checked artifact (the layout
`actions/download-artifact` produces: one subdirectory per artifact).
For every variant present in both runs, every higher-is-better
throughput field (`*_per_s`, `mb_per_s`, `mpps`) must satisfy
`new >= (1 - TOLERANCE) * old` with TOLERANCE = 15%. Variants or
fields only one side has are skipped (renames and additions don't
block), and a missing baseline file is a warning, not a failure —
the first run after this gate lands has nothing to compare against.
A baseline measured on a different kind of host is skipped the same
way: when both artifacts' `config` record a host fact (`HOST_KEYS`:
core count and whether the SHA-extension HMAC kernel ran) and the
values differ, the comparison would measure the host, not the code,
so it warns and skips. A baseline that predates these keys is
compared as before.
"""

import argparse
import json
import math
import os
import sys

DEFAULT_ARTIFACTS = [
    "BENCH_collector.json",
    "BENCH_wire.json",
    "BENCH_verifier.json",
    "BENCH_audit.json",
]

# A new run may be this much slower than the baseline before the gate
# fails. CI boxes are noisy; 15% is well past jitter for the min-of-R
# timings the harnesses report.
TOLERANCE = 0.15

# Throughput fields where larger is better (ratios and sizes are not
# trend-gated — only rates are).
RATE_SUFFIXES = ("_per_s",)
RATE_NAMES = ("mb_per_s", "mpps")

# The collector bench must carry the current architecture's ceiling
# rows: the multi-lane SIMD digest kernel against its scalar twin and
# the paper's 100k-path regime.
REQUIRED_COLLECTOR_VARIANTS = (
    "digest_batch_scalar",
    "digest_batch_words",
    "classify_paper_scale",
    "ingest_paper_scale",
)
REQUIRED_COLLECTOR_SUMMARIES = ("simd_digest_speedup",)

# The wire bench must measure the authenticity plane: signed-frame
# encode and MAC verification alongside the unsigned baseline, and
# HMAC-SHA-256 on the host's dispatched kernel against the portable one.
REQUIRED_WIRE_VARIANTS = (
    "encode_signed_compact",
    "encode_signed_precise",
    "verify_signed_compact",
    "verify_signed_precise",
    "hmac_portable",
    "hmac_dispatch",
)

# Host facts every bench config records. Two runs that disagree on
# any of them ran on different kinds of host: a CI runner without
# SHA-NI runs every signed row on the portable kernel, several times
# slower, with no code regressed.
HOST_KEYS = ("available_parallelism", "sha_ni")

# The verifier bench must carry the idle-consumer comparison (blocking
# wait vs spin-poll): the dissemination plane's event-driven contract
# is part of the bench's schema, not an optional extra.
REQUIRED_VERIFIER_SUMMARIES = (
    "idle_spin_polls_per_publish",
    "idle_wait_polls_per_publish",
    "idle_poll_reduction",
)

# The audit bench must measure every continuous-operation claim: the
# end-to-end streaming audit, GC reclaim, and the checkpoint codec
# round-trip, plus the bounded-memory summaries.
REQUIRED_AUDIT_VARIANTS = (
    "audit_intervals",
    "gc_reclaim",
    "checkpoint_encode",
    "checkpoint_restore",
)
REQUIRED_AUDIT_SUMMARIES = (
    "gc_reclaimed_per_pass",
    "checkpoint_bytes",
    "audit_max_entries",
)


def fail(msg: str) -> None:
    print(f"bench_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def warn(msg: str) -> None:
    print(f"bench_check: WARN: {msg}", file=sys.stderr)


def is_finite_number(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)


def is_rate_field(name: str) -> bool:
    return name in RATE_NAMES or any(name.endswith(s) for s in RATE_SUFFIXES)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except FileNotFoundError:
        fail(f"{path}: artifact missing")
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON ({e})")
    if not isinstance(report, dict):
        fail(f"{path}: top level must be an object, got {type(report).__name__}")
    return report


def check_schema(path: str, report: dict, require_contract: bool = True) -> dict:
    """Validate one artifact; return {variant name: result object}.

    `require_contract=False` skips the per-harness required-variant
    checks — used for baselines, which may predate a newly added
    requirement (the trend gate must not fail because the *previous*
    run didn't measure a variant that didn't exist yet).
    """
    config = report.get("config")
    if not isinstance(config, dict) or not config:
        fail(f"{path}: missing non-empty 'config' object")
    results = report.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{path}: missing non-empty 'results' array")

    by_name = {}
    for i, r in enumerate(results):
        where = f"{path}: results[{i}]"
        if not isinstance(r, dict):
            fail(f"{where}: must be an object")
        name = r.get("name")
        if not isinstance(name, str) or not name:
            fail(f"{where}: missing string 'name'")
        if name in by_name:
            fail(f"{where}: duplicate variant name '{name}'")
        by_name[name] = r
        throughput = {k: v for k, v in r.items() if k != "name"}
        if not throughput:
            fail(f"{where} ('{name}'): no throughput fields")
        for k, v in throughput.items():
            if not is_finite_number(v):
                fail(f"{where} ('{name}').{k}: not a finite number: {v!r}")

    for k, v in report.items():
        if k in ("config", "results"):
            continue
        if not is_finite_number(v):
            fail(f"{path}: summary field '{k}': not a finite number: {v!r}")

    if not require_contract:
        print(f"bench_check: {path}: {len(by_name)} variants, schema OK (baseline)")
        return by_name

    if os.path.basename(path) == "BENCH_collector.json":
        missing = [v for v in REQUIRED_COLLECTOR_VARIANTS if v not in by_name]
        if missing:
            fail(
                f"{path}: SIMD/paper-scale variants missing from "
                f"the collector bench: {', '.join(missing)}"
            )
        missing = [s for s in REQUIRED_COLLECTOR_SUMMARIES if s not in report]
        if missing:
            fail(
                f"{path}: SIMD summaries missing from the "
                f"collector bench: {', '.join(missing)}"
            )

    if os.path.basename(path) == "BENCH_wire.json":
        missing = [v for v in REQUIRED_WIRE_VARIANTS if v not in by_name]
        if missing:
            fail(
                f"{path}: signed-frame/HMAC variants missing from the wire "
                f"bench: {', '.join(missing)}"
            )

    if os.path.basename(path) == "BENCH_verifier.json":
        missing = [s for s in REQUIRED_VERIFIER_SUMMARIES if s not in report]
        if missing:
            fail(
                f"{path}: idle-consumer summaries missing from the "
                f"verifier bench: {', '.join(missing)}"
            )

    if os.path.basename(path) == "BENCH_audit.json":
        missing = [v for v in REQUIRED_AUDIT_VARIANTS if v not in by_name]
        if missing:
            fail(
                f"{path}: continuous-operation variants missing from "
                f"the audit bench: {', '.join(missing)}"
            )
        missing = [s for s in REQUIRED_AUDIT_SUMMARIES if s not in report]
        if missing:
            fail(
                f"{path}: GC/checkpoint summaries missing from the "
                f"audit bench: {', '.join(missing)}"
            )

    print(f"bench_check: {path}: {len(by_name)} variants, schema OK")
    return by_name


def find_baseline(baseline_dir: str, basename: str):
    """The previous run's artifact with this basename, or None."""
    for root, _dirs, files in os.walk(baseline_dir):
        if basename in files:
            return os.path.join(root, basename)
    return None


def host_mismatch(config: dict, base_config: dict) -> list:
    """Host facts both configs record with different values."""
    return [
        k
        for k in HOST_KEYS
        if k in config and k in base_config and config[k] != base_config[k]
    ]


def check_trend(path: str, report: dict, current: dict, baseline_path: str) -> int:
    """Compare rate fields against the baseline; return comparisons made."""
    base_report = load(baseline_path)
    base = check_schema(baseline_path, base_report, require_contract=False)
    mismatch = host_mismatch(report["config"], base_report["config"])
    if mismatch:
        facts = ", ".join(
            f"{k} {base_report['config'][k]!r} -> {report['config'][k]!r}"
            for k in mismatch
        )
        warn(
            f"{path}: baseline {baseline_path} ran on a different host "
            f"({facts}) — skipping trend gate for this artifact"
        )
        return 0
    compared = 0
    for name, r in current.items():
        old = base.get(name)
        if old is None:
            continue  # new variant: nothing to regress against
        for field, new_v in r.items():
            if field == "name" or not is_rate_field(field):
                continue
            old_v = old.get(field)
            if not is_finite_number(old_v) or old_v <= 0:
                continue
            compared += 1
            floor = (1.0 - TOLERANCE) * old_v
            if new_v < floor:
                fail(
                    f"{path}: '{name}'.{field} regressed "
                    f"{(1.0 - new_v / old_v) * 100.0:.1f}% "
                    f"({old_v:.3g} -> {new_v:.3g}; floor {floor:.3g} at "
                    f"{TOLERANCE:.0%} tolerance) vs {baseline_path}"
                )
    print(
        f"bench_check: {path}: {compared} rate fields within "
        f"{TOLERANCE:.0%} of {baseline_path}"
    )
    return compared


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifacts", nargs="*", default=None)
    ap.add_argument(
        "--baseline",
        metavar="DIR",
        help="directory holding the previous run's BENCH_*.json artifacts "
        "(searched recursively by basename); enables the regression gate",
    )
    opts = ap.parse_args()
    artifacts = opts.artifacts or DEFAULT_ARTIFACTS

    total = 0
    compared = 0
    for path in artifacts:
        report = load(path)
        current = check_schema(path, report)
        total += len(current)
        if opts.baseline:
            baseline_path = find_baseline(opts.baseline, os.path.basename(path))
            if baseline_path is None:
                warn(
                    f"{path}: no baseline under {opts.baseline!r} — "
                    "skipping trend gate for this artifact"
                )
            else:
                compared += check_trend(path, report, current, baseline_path)

    trend = (
        f", {compared} rate fields trend-checked"
        if opts.baseline
        else " (no --baseline: schema only)"
    )
    print(f"bench_check: {len(artifacts)} artifacts, {total} variants — all OK{trend}")


if __name__ == "__main__":
    main()
