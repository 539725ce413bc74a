#!/usr/bin/env python3
"""CI trend gate over `domset bench` documents (schema domset-bench/1).

Usage:
    check_bench_trend.py CURRENT.json --baseline BASELINE.json
                         [--tolerance 0.40] [--min-ms 2.0]
                         [--allow-missing]
    check_bench_trend.py CURRENT.json --write-baseline OUT.json
    check_bench_trend.py --self-test

Compares the current sweep against a committed baseline cell by cell
(key: alg / graph / n / seed / threads) and FAILS when

  * a cell's solution digest differs from the baseline's -- the solver
    output changed for the same seed, which is either a determinism
    regression or an intentional algorithm change that must ship with a
    refreshed baseline;
  * a cell's median wall-time regressed beyond --tolerance (default
    40%: generous, because CI runs on shared runners) AND by more than
    --min-ms absolute (sub-millisecond cells flap on timer noise);
  * a baseline cell is absent from the current document (the sweep
    silently shrank), unless --allow-missing.

New cells (present now, absent from the baseline) are reported but do
not fail; they start being gated once the baseline is refreshed.

A per-cell delta table is printed to stdout and, when the
GITHUB_STEP_SUMMARY environment variable is set, appended there as a
Markdown job summary.

--write-baseline strips CURRENT.json down to the committed baseline form
(schema domset-bench-baseline/1: cell keys, digests, median timings) --
the way bench/baselines/ci_baseline.json is produced and refreshed.
Refresh it whenever the sweep spec, an algorithm, or the runner class
changes:

    ./build/domset bench ... --out current.json
    python3 scripts/check_bench_trend.py current.json \
        --write-baseline bench/baselines/ci_baseline.json

--self-test exercises the gate on synthetic documents (pass, injected
digest mismatch, injected slowdown, shrunk sweep) and exits nonzero if
any expectation fails; CI runs it before the real comparison so the gate
itself is tested.

The same gate covers the ingestion bench: a domset-ingest/1 document
(bench_p5_ingest --out) compared against an ingest baseline
(domset-ingest-baseline/1, committed as
bench/baselines/ingest_baseline.json) keys cells by
op / format / edges / threads and applies identical semantics -- graph
digests must match exactly, medians must stay within tolerance.  The
schema family is detected from the documents; comparing a bench
document against an ingest baseline is an error.

The dynamic-replay bench (bench_p6_dynamic --out, schema
domset-dynamic-bench/1, baseline domset-dynamic-bench-baseline/1
committed as bench/baselines/dynamic_baseline.json) joins the same
gate: cells are keyed graph / n / batch / mode ("repair" = incremental
median, "full" = sampled re-solve median, "capped" = incremental with
the degree-capped frontier `domset serve` uses) and the per-run final
digest must reproduce exactly -- the replay is a pure function of its
seed.

So does the serve load report (`domset load --json`, schema
domset-serve/1, baseline domset-serve-baseline/1): the document has no
"cells" array, so the gate synthesizes one cell per latency block
(op in {query, query_during_repair, commit}), keyed
graph / n / clients / batch / op, with median_ms = that block's p50 and
every cell carrying final.digest -- a digest mismatch means the served
mutation stream stopped reproducing the offline replay.  Latency cells
are timing-noisy by nature; gate them with a generous --tolerance.

Stdlib only.  Exits 0 when the gate passes, 1 on regressions or invalid
input.
"""

import json
import os
import sys

BENCH_SCHEMA = "domset-bench/1"
BASELINE_SCHEMA = "domset-bench-baseline/1"
INGEST_SCHEMA = "domset-ingest/1"
INGEST_BASELINE_SCHEMA = "domset-ingest-baseline/1"
DYNAMIC_SCHEMA = "domset-dynamic-bench/1"
DYNAMIC_BASELINE_SCHEMA = "domset-dynamic-bench-baseline/1"
SERVE_SCHEMA = "domset-serve/1"
SERVE_BASELINE_SCHEMA = "domset-serve-baseline/1"

# Cell-identity fields per schema family.  The first entry is the solver
# sweep; "ingest" keys the ingestion bench's cells; "dynamic" keys the
# replay bench's repair-vs-full cells (bench_p6_dynamic); "serve" keys
# the cells synthesized from a `domset load --json` report's latency
# blocks (see serve_cells).
KEY_FIELDS_BY_FAMILY = {
    "bench": ("alg", "graph", "n", "seed", "threads", "drop", "faults"),
    "ingest": ("op", "format", "edges", "threads"),
    "dynamic": ("graph", "n", "batch", "mode"),
    "serve": ("graph", "n", "clients", "batch", "op"),
}
FAMILY_BY_SCHEMA = {
    BENCH_SCHEMA: "bench",
    BASELINE_SCHEMA: "bench",
    INGEST_SCHEMA: "ingest",
    INGEST_BASELINE_SCHEMA: "ingest",
    DYNAMIC_SCHEMA: "dynamic",
    DYNAMIC_BASELINE_SCHEMA: "dynamic",
    SERVE_SCHEMA: "serve",
    SERVE_BASELINE_SCHEMA: "serve",
}
BASELINE_SCHEMA_BY_FAMILY = {
    "bench": BASELINE_SCHEMA,
    "ingest": INGEST_BASELINE_SCHEMA,
    "dynamic": DYNAMIC_BASELINE_SCHEMA,
    "serve": SERVE_BASELINE_SCHEMA,
}
SERVE_LATENCY_OPS = ("query", "query_during_repair", "commit")
# Back-compat alias: the bench family's fields under the historical name.
KEY_FIELDS = KEY_FIELDS_BY_FAMILY["bench"]


def cell_key(cell, key_fields=KEY_FIELDS):
    """Cell identity including the degradation axes.  Baselines written
    before those axes existed have no drop/faults keys; they normalize to
    the reliable values (0, "none") so old baselines keep gating new
    sweeps cell for cell."""
    key = []
    for field in key_fields:
        value = cell.get(field)
        if field == "drop":
            value = float(value) if isinstance(value, (int, float)) else 0.0
        elif field == "faults":
            value = value if isinstance(value, str) and value else "none"
        key.append(value)
    return tuple(key)


def key_label(key, key_fields=KEY_FIELDS):
    if key_fields is not KEY_FIELDS:
        return "/".join(f"{f}={v}" for f, v in zip(key_fields, key))
    alg, graph, n, seed, threads, drop, faults = key
    label = f"{alg}/{graph}/n={n}/seed={seed}/t={threads}"
    if drop:
        label += f"/drop={drop:g}"
    if faults != "none":
        label += f"/faults={faults}"
    return label


def serve_cells(doc):
    """Synthesizes gate cells from a domset-serve/1 load report: one per
    latency block, median_ms = that block's p50, all carrying the final
    digest (the determinism join with the offline replay)."""
    graph = doc.get("graph", {})
    params = doc.get("serve", {})
    latency = doc.get("latency", {})
    digest = doc.get("final", {}).get("digest")
    cells = []
    for op in SERVE_LATENCY_OPS:
        block = latency.get(op, {})
        cells.append({
            "graph": graph.get("family"), "n": graph.get("nodes"),
            "clients": params.get("clients"), "batch": params.get("batch"),
            "op": op, "median_ms": block.get("p50_ms"),
            "count": block.get("count"), "digest": digest,
        })
    return cells


def load_cells(path, expect_family=None):
    """Returns ({key: cell}, family) for a bench or ingest document."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"check_bench_trend: {path}: {e}")
    schema = doc.get("schema") if isinstance(doc, dict) else None
    family = FAMILY_BY_SCHEMA.get(schema)
    if family is None or (expect_family and family != expect_family):
        raise SystemExit(
            f"check_bench_trend: {path}: schema is {schema!r}, want "
            + (f"a {expect_family} document"
               if expect_family else f"one of {sorted(FAMILY_BY_SCHEMA)}")
        )
    cells = serve_cells(doc) if schema == SERVE_SCHEMA else doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise SystemExit(f"check_bench_trend: {path}: no cells")
    key_fields = KEY_FIELDS_BY_FAMILY[family]
    return {cell_key(c, key_fields): c for c in cells}, family


def compare(current, baseline, tolerance, min_ms, allow_missing,
            key_fields=KEY_FIELDS):
    """Returns (failures, rows): failure strings + delta-table rows."""
    def label_of(key):
        return key_label(key, key_fields)

    failures = []
    rows = []
    for key in sorted(baseline, key=label_of):
        base = baseline[key]
        cur = current.get(key)
        label = label_of(key)
        if cur is None:
            rows.append((label, base.get("median_ms"), None, None, "MISSING"))
            if not allow_missing:
                failures.append(
                    f"{label}: present in the baseline but missing from the "
                    "current sweep (did the CI spec shrink?)"
                )
            continue
        base_ms = base.get("median_ms")
        cur_ms = cur.get("median_ms")
        delta = None
        status = "ok"
        if isinstance(base_ms, (int, float)) and isinstance(
                cur_ms, (int, float)) and base_ms > 0:
            delta = (cur_ms - base_ms) / base_ms
            if delta > tolerance and (cur_ms - base_ms) > min_ms:
                status = "SLOW"
                failures.append(
                    f"{label}: median {cur_ms:.2f} ms vs baseline "
                    f"{base_ms:.2f} ms (+{delta * 100.0:.0f}% > "
                    f"{tolerance * 100.0:.0f}% tolerance)"
                )
        if base.get("digest") != cur.get("digest"):
            status = "DIGEST"
            failures.append(
                f"{label}: solution digest {cur.get('digest')} != baseline "
                f"{base.get('digest')} (same seed must reproduce the same "
                "solution; refresh the baseline only for intentional "
                "algorithm changes)"
            )
        rows.append((label, base_ms, cur_ms, delta, status))
    for key in sorted(set(current) - set(baseline), key=label_of):
        rows.append(
            (label_of(key), None, current[key].get("median_ms"), None, "new")
        )
    return failures, rows


def fmt_ms(value):
    return f"{value:.2f}" if isinstance(value, (int, float)) else "-"


def fmt_delta(delta):
    return f"{delta * +100.0:+.0f}%" if isinstance(delta, float) else "-"


def render_table(rows):
    lines = ["| cell | baseline ms | current ms | delta | status |",
             "|---|---|---|---|---|"]
    for label, base_ms, cur_ms, delta, status in rows:
        lines.append(
            f"| {label} | {fmt_ms(base_ms)} | {fmt_ms(cur_ms)} | "
            f"{fmt_delta(delta)} | {status} |"
        )
    return "\n".join(lines)


def write_baseline(current, out_path, source, family="bench"):
    key_fields = KEY_FIELDS_BY_FAMILY[family]
    cells = []
    for key in sorted(current, key=lambda k: key_label(k, key_fields)):
        cell = current[key]
        # Write the normalized key values so refreshed baselines carry the
        # degradation axes explicitly.
        slim = dict(zip(key_fields, key))
        slim["median_ms"] = cell.get("median_ms")
        slim["digest"] = cell.get("digest")
        if family == "bench":
            slim["rounds"] = cell.get("rounds")
        cells.append(slim)
    doc = {"schema": BASELINE_SCHEMA_BY_FAMILY[family], "source": source,
           "cells": cells}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"baseline with {len(cells)} cells written to {out_path}")


def self_test():
    def doc(ms_scale=1.0, digest="00000000000000aa", drop_last=False):
        cells = [
            {"alg": "pipeline", "graph": "gnp", "n": 1000, "seed": 1,
             "threads": t,
             "median_ms": 10.0 * t * ms_scale, "digest": digest}
            for t in (1, 2)
        ]
        if drop_last:
            cells.pop()
        return {cell_key(c): c for c in cells}

    failed = []

    def expect(name, failures, want_fail):
        if bool(failures) != want_fail:
            failed.append(f"{name}: failures={failures} want_fail={want_fail}")

    base = doc()
    expect("identical docs pass", compare(base, doc(), 0.40, 2.0, False)[0],
           False)
    expect("small drift passes",
           compare(doc(ms_scale=1.2), base, 0.40, 2.0, False)[0], False)
    expect("2x slowdown fails",
           compare(doc(ms_scale=2.0), base, 0.40, 2.0, False)[0], True)
    expect("tiny absolute drift passes the --min-ms floor",
           compare(doc(ms_scale=0.1), doc(ms_scale=0.001), 0.40, 2.0,
                   False)[0], False)
    expect("injected digest mismatch fails",
           compare(doc(digest="00000000000000bb"), base, 0.40, 2.0,
                   False)[0], True)
    expect("shrunk sweep fails",
           compare(doc(drop_last=True), base, 0.40, 2.0, False)[0], True)
    expect("shrunk sweep passes with --allow-missing",
           compare(doc(drop_last=True), base, 0.40, 2.0, True)[0], False)
    expect("speedup passes", compare(doc(ms_scale=0.2), base, 0.40, 2.0,
                                     False)[0], False)

    # Degradation-axis compatibility: a baseline written before the
    # drop/faults axes existed (no such keys) must match a current sweep
    # that emits the reliable values explicitly.
    def cells_with(extra, digest="00000000000000aa"):
        cell = {"alg": "pipeline", "graph": "gnp", "n": 1000, "seed": 1,
                "threads": 1, "median_ms": 10.0, "digest": digest}
        cell.update(extra)
        return {cell_key(cell): cell}

    expect("pre-fault baseline matches explicit reliable axes",
           compare(cells_with({"drop": 0, "faults": "none"}),
                   cells_with({}), 0.40, 2.0, False)[0], False)
    expect("faulty cell is keyed separately from the reliable cell",
           compare(cells_with({"faults": "crash=1@0"}),
                   cells_with({}), 0.40, 2.0, False)[0], True)
    expect("faulty cells gate on digests too",
           compare(cells_with({"faults": "crash=1@0"},
                              digest="00000000000000bb"),
                   cells_with({"faults": "crash=1@0"}), 0.40, 2.0,
                   False)[0], True)

    # Ingest-schema cells: keyed by op/format/edges/threads, same gate
    # semantics (digest equality always, medians within tolerance).
    ingest_fields = KEY_FIELDS_BY_FAMILY["ingest"]

    def ingest_doc(ms_scale=1.0, digest="00000000000000aa"):
        cells = [
            {"op": op, "format": fmt, "edges": 1000000, "threads": 1,
             "median_ms": ms * ms_scale, "digest": digest}
            for op, fmt, ms in (("parse", "text", 300.0),
                                ("load", "binary", 3.0),
                                ("load", "compressed", 11.0))
        ]
        return {cell_key(c, ingest_fields): c for c in cells}

    def ingest_compare(cur, base, **kwargs):
        return compare(cur, base, kwargs.get("tolerance", 0.40),
                       kwargs.get("min_ms", 2.0),
                       kwargs.get("allow_missing", False),
                       key_fields=ingest_fields)[0]

    expect("identical ingest docs pass",
           ingest_compare(ingest_doc(), ingest_doc()), False)
    expect("ingest 2x slowdown fails",
           ingest_compare(ingest_doc(ms_scale=2.0), ingest_doc()), True)
    expect("ingest digest mismatch fails",
           ingest_compare(ingest_doc(digest="00000000000000bb"),
                          ingest_doc()), True)
    expect("ingest cells key on format (binary != compressed)",
           ingest_compare(
               {k: c for k, c in ingest_doc().items()
                if c["format"] != "compressed"}, ingest_doc()), True)
    expect("ingest speedup passes",
           ingest_compare(ingest_doc(ms_scale=0.2), ingest_doc()), False)

    # Dynamic-replay cells: keyed by graph/n/batch/mode, same gate
    # semantics (the per-run final digest is the determinism check).
    dynamic_fields = KEY_FIELDS_BY_FAMILY["dynamic"]

    def dynamic_doc(ms_scale=1.0, digest="00000000000000aa"):
        cells = [
            {"graph": gr, "n": 20000, "batch": b, "mode": mode,
             "median_ms": ms * ms_scale, "digest": digest}
            for gr, b, mode, ms in (("ba", 8, "repair", 5.0),
                                    ("ba", 8, "full", 40.0),
                                    ("gnp", 8, "repair", 30.0))
        ]
        return {cell_key(c, dynamic_fields): c for c in cells}

    def dynamic_compare(cur, base):
        return compare(cur, base, 0.40, 2.0, False,
                       key_fields=dynamic_fields)[0]

    expect("identical dynamic docs pass",
           dynamic_compare(dynamic_doc(), dynamic_doc()), False)
    expect("dynamic 2x slowdown fails",
           dynamic_compare(dynamic_doc(ms_scale=2.0), dynamic_doc()), True)
    expect("dynamic digest mismatch fails",
           dynamic_compare(dynamic_doc(digest="00000000000000bb"),
                           dynamic_doc()), True)
    expect("dynamic cells key on mode (repair != full)",
           dynamic_compare(
               {k: c for k, c in dynamic_doc().items()
                if c["mode"] != "full"}, dynamic_doc()), True)
    expect("dynamic capped mode is keyed separately from repair",
           dynamic_compare(
               {cell_key(dict(c, mode="capped"), dynamic_fields):
                dict(c, mode="capped")
                for c in dynamic_doc().values()}, dynamic_doc()), True)

    # Serve load reports: cells are synthesized from the latency blocks
    # (no "cells" array in the document), keyed graph/n/clients/batch/op,
    # and every cell carries the final digest.
    serve_fields = KEY_FIELDS_BY_FAMILY["serve"]

    def serve_doc(query_scale=1.0, commit_scale=1.0,
                  digest="00000000000000aa"):
        doc = {
            "schema": SERVE_SCHEMA,
            "graph": {"family": "ba", "nodes": 2000},
            "serve": {"clients": 8, "batch": 32},
            "latency": {
                "query": {"count": 800, "p50_ms": 0.02 * query_scale,
                          "p99_ms": 2.4},
                "query_during_repair": {"count": 568,
                                        "p50_ms": 0.01 * query_scale,
                                        "p99_ms": 2.7},
                "commit": {"count": 8, "p50_ms": 5.0 * commit_scale,
                           "p99_ms": 11.4},
            },
            "final": {"digest": digest},
        }
        return {cell_key(c, serve_fields): c for c in serve_cells(doc)}

    def serve_compare(cur, base):
        return compare(cur, base, 0.40, 2.0, False,
                       key_fields=serve_fields)[0]

    expect("identical serve reports pass",
           serve_compare(serve_doc(), serve_doc()), False)
    expect("serve commit slowdown fails",
           serve_compare(serve_doc(commit_scale=3.0), serve_doc()), True)
    expect("sub-ms serve query jitter passes the --min-ms floor",
           serve_compare(serve_doc(query_scale=10.0), serve_doc()), False)
    expect("serve final-digest mismatch fails every synthesized cell",
           serve_compare(serve_doc(digest="00000000000000bb"),
                         serve_doc()), True)

    if failed:
        for line in failed:
            print(f"self-test FAILED: {line}")
        return 1
    print("self-test OK: 25 gate expectations hold")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()

    def take_option(name, default=None):
        if name in argv:
            index = argv.index(name)
            argv.pop(index)
            if index >= len(argv):
                raise SystemExit(f"check_bench_trend: {name} needs a value")
            return argv.pop(index)
        return default

    baseline_path = take_option("--baseline")
    write_path = take_option("--write-baseline")
    tolerance = float(take_option("--tolerance", "0.40"))
    min_ms = float(take_option("--min-ms", "2.0"))
    allow_missing = "--allow-missing" in argv
    files = [a for a in argv if a != "--allow-missing"]
    if len(files) != 1:
        print(__doc__.strip())
        return 1

    current, family = load_cells(files[0])
    if write_path:
        write_baseline(current, write_path, os.path.basename(files[0]),
                       family)
        return 0
    if not baseline_path:
        print(__doc__.strip())
        return 1
    baseline, _ = load_cells(baseline_path, expect_family=family)

    failures, rows = compare(current, baseline, tolerance, min_ms,
                             allow_missing,
                             key_fields=KEY_FIELDS_BY_FAMILY[family])
    table = render_table(rows)
    heading = (
        f"### domset bench trend gate\n\n"
        f"{len(rows)} cell(s), tolerance {tolerance * 100.0:.0f}%, "
        f"floor {min_ms:g} ms, baseline `{os.path.basename(baseline_path)}`"
        f"\n\n"
    )
    print(heading + table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as f:
            f.write(heading + table + "\n\n")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"\nOK: {len(rows)} cell(s) within tolerance, digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
