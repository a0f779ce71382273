#!/usr/bin/env python3
"""Validate bench --json snapshots and gate regressions against a baseline.

Two modes:

  validate_bench.py CURRENT.json
      Schema validation only: required metadata, section shapes, kernel
      invariants (bit_identical must be true everywhere; gated kernel
      rows must show the candidate beating its baseline).

  validate_bench.py CURRENT.json --baseline BENCH_PR6.json [--tolerance 0.15]
      Schema validation plus regression comparison: per-experiment
      wall-clock must not exceed the committed baseline by more than the
      tolerance (default 15%). Experiments present only on one side are
      reported but not fatal (the set of experiments is allowed to grow).
      Gates cannot be lost: every kernel row that is gated in the
      baseline must be present (matched by name) and gated in the
      current snapshot.

Exit status is 0 when everything passes, 1 otherwise. Uses only the
standard library.
"""

import argparse
import json
import os
import sys

SCHEMA_VERSION = 1

# (field, type) pairs every snapshot must carry at top level.
REQUIRED_METADATA = [
    ("schema_version", int),
    ("git_rev", str),
    ("platform", str),
    ("domains_recommended", int),
    ("full", bool),
    ("jobs", int),
]

REQUIRED_SECTIONS = {
    "experiments": [("id", str), ("description", str), ("wall_s", float), ("solves", int)],
    "parallel_extraction": [
        ("layout", str),
        ("n", int),
        ("jobs", int),
        ("seq_s", float),
        ("par_s", float),
        ("speedup", float),
        ("bitwise_identical", bool),
    ],
    "apply_throughput": [
        ("operator", str),
        ("n", int),
        ("storage_floats", int),
        ("s_per_matvec", float),
        ("matvecs_per_s", float),
    ],
    "trace": [],
    "kernels": [
        ("name", str),
        ("n", int),
        ("baseline", str),
        ("baseline_s", float),
        ("candidate", str),
        ("candidate_s", float),
        ("speedup", float),
        ("bit_identical", bool),
        ("gated", bool),
    ],
}

# Sections newer than the committed baseline snapshot: validated with the
# same row shapes when present, but their absence is not an error (the
# baseline predates them and must keep validating).
OPTIONAL_SECTIONS = {
    "shard": [
        ("layout", str),
        ("n", int),
        ("level", int),
        ("shards", int),
        ("fresh_s", float),
        ("resume_s", float),
        ("total_solves", int),
        ("resume_live_solves", int),
        ("bitwise_identical", bool),
    ],
    "scenario_matrix": [
        ("scenario", str),
        ("solver", str),
        ("n", int),
        ("solves", int),
        ("wall_s", float),
        ("probe_digest", str),
    ],
    "serve": [
        ("mode", str),
        ("jobs", int),
        ("clients", int),
        ("requests", int),
        ("wall_s", float),
        ("matvecs_per_s", float),
        ("mean_batch", float),
        ("bit_identical", bool),
    ],
}


def typecheck(value, expected):
    # ints serialize as valid floats; accept them where a float is expected.
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def validate_schema(doc, path):
    errors = []
    if not isinstance(doc, dict):
        # A fresh bench history is "[]"; anything non-object cannot carry
        # the schema, so fail with one clear message instead of a traceback.
        return [f"{path}: snapshot is {type(doc).__name__}, want a JSON object"]
    for field, expected in REQUIRED_METADATA:
        if field not in doc:
            errors.append(f"{path}: missing metadata field '{field}'")
        elif not typecheck(doc[field], expected):
            errors.append(f"{path}: metadata field '{field}' has type "
                          f"{type(doc[field]).__name__}, want {expected.__name__}")
    if doc.get("schema_version") not in (None, SCHEMA_VERSION):
        errors.append(f"{path}: schema_version {doc['schema_version']} "
                      f"unsupported (validator knows {SCHEMA_VERSION})")
    def check_section(section, fields, required):
        rows = doc.get(section)
        if rows is None:
            if required:
                errors.append(f"{path}: missing section '{section}'")
            return
        if not isinstance(rows, list):
            errors.append(f"{path}: section '{section}' is not an array")
            return
        for i, row in enumerate(rows):
            for field, expected in fields:
                if field not in row:
                    errors.append(f"{path}: {section}[{i}] missing '{field}'")
                elif not typecheck(row[field], expected):
                    errors.append(f"{path}: {section}[{i}].{field} has type "
                                  f"{type(row[field]).__name__}, want {expected.__name__}")

    for section, fields in REQUIRED_SECTIONS.items():
        check_section(section, fields, required=True)
    for section, fields in OPTIONAL_SECTIONS.items():
        check_section(section, fields, required=False)
    return errors


def validate_invariants(doc, path):
    """Per-snapshot gates, independent of any baseline."""
    errors = []
    for i, row in enumerate(doc.get("kernels", [])):
        label = f"{path}: kernels[{i}] ({row.get('name', '?')})"
        if row.get("bit_identical") is not True:
            errors.append(f"{label}: candidate kernel is not bit-identical")
        if row.get("gated") and not row.get("speedup", 0) > 1.0:
            errors.append(f"{label}: gated kernel does not beat its baseline "
                          f"(speedup {row.get('speedup')})")
    for i, row in enumerate(doc.get("parallel_extraction", [])):
        if row.get("bitwise_identical") is not True:
            errors.append(f"{path}: parallel_extraction[{i}] is not bitwise identical")
    for i, row in enumerate(doc.get("serve", [])):
        label = f"{path}: serve[{i}] ({row.get('mode', '?')}, jobs {row.get('jobs', '?')})"
        if row.get("bit_identical") is not True:
            errors.append(f"{label}: served matvecs are not bit-identical to the "
                          f"direct apply_batch reference")
    return errors


def compare_wall_clock(current, baseline, tolerance):
    """Wall-clock is machine-bound, so regressions are only fatal when both
    snapshots come from the same platform triple; across platforms the
    comparison is reported but advisory."""
    errors, notes = [], []
    base = {r["id"]: r for r in baseline.get("experiments", [])}
    cur = {r["id"]: r for r in current.get("experiments", [])}
    same_platform = current.get("platform") == baseline.get("platform")
    if not same_platform:
        notes.append(f"note: platform differs (current '{current.get('platform')}' vs "
                     f"baseline '{baseline.get('platform')}'); wall-clock comparison is advisory")
    for exp_id, row in sorted(cur.items()):
        if exp_id not in base:
            notes.append(f"note: experiment '{exp_id}' has no baseline entry; skipped")
            continue
        # Schema validation reports missing fields; don't crash on them here.
        base_s, cur_s = base[exp_id].get("wall_s", 0), row.get("wall_s", 0)
        if base_s <= 0:
            notes.append(f"note: experiment '{exp_id}' baseline wall-clock is 0; skipped")
            continue
        ratio = cur_s / base_s
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            if same_platform:
                errors.append(f"experiment '{exp_id}' regressed {ratio:.2f}x over baseline "
                              f"({cur_s:.3f}s vs {base_s:.3f}s, tolerance {tolerance:.0%})")
                verdict = "REGRESSED"
            else:
                verdict = "slower (advisory: platform differs)"
        notes.append(f"  {exp_id:<10} baseline {base_s:8.3f}s  current {cur_s:8.3f}s  "
                     f"{ratio:5.2f}x  {verdict}")
    for exp_id in sorted(set(base) - set(cur)):
        notes.append(f"note: baseline experiment '{exp_id}' not in current run")
    return errors, notes


def compare_gated_kernels(current, baseline):
    """A gate is only a gate if it cannot be deleted or renamed away: every
    kernel row the baseline gates must still exist, and still be gated, in
    the current snapshot."""
    errors = []
    cur = {r.get("name"): r for r in current.get("kernels", [])}
    for row in baseline.get("kernels", []):
        if not row.get("gated"):
            continue
        name = row.get("name")
        if name not in cur:
            errors.append(f"gated kernel row '{name}' from the baseline is missing "
                          f"from the current snapshot")
        elif cur[name].get("gated") is not True:
            errors.append(f"kernel row '{name}' is gated in the baseline but no "
                          f"longer gated in the current snapshot")
    return errors


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh), []
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"{path}: cannot load: {exc}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", help="bench --json snapshot to validate")
    ap.add_argument("--baseline", help="committed snapshot to compare wall-clock against")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional wall-clock regression (default 0.15)")
    args = ap.parse_args()

    doc, errors = load(args.current)
    if doc is not None:
        errors += validate_schema(doc, args.current)
        if isinstance(doc, dict):
            errors += validate_invariants(doc, args.current)

    if args.baseline and isinstance(doc, dict):
        if not os.path.exists(args.baseline):
            print(f"note: no baseline yet ({args.baseline} does not exist); "
                  "nothing to compare against")
        else:
            base, load_errors = load(args.baseline)
            errors += load_errors
            # A bench history starts life as "[]"; an empty history (or an
            # empty object) is "no baseline yet", not a schema violation. A
            # non-empty history array compares against its newest snapshot.
            if isinstance(base, list):
                base = base[-1] if base else None
                if base is None:
                    print(f"note: no baseline yet ({args.baseline} is an empty history)")
            elif base == {}:
                base = None
                print(f"note: no baseline yet ({args.baseline} is empty)")
            if base is not None:
                errors += validate_schema(base, args.baseline)
                errors += compare_gated_kernels(doc, base)
                cmp_errors, notes = compare_wall_clock(doc, base, args.tolerance)
                errors += cmp_errors
                for note in notes:
                    print(note)

    if errors:
        for err in errors:
            print(f"ERROR: {err}", file=sys.stderr)
        print(f"validate_bench: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print("validate_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
