#!/usr/bin/env python3
"""Schema check for the `domset` driver's JSON outputs.

Usage:
    validate_result_json.py FILE.json [MORE.json ...] [--expect-identical]

Each file must carry one of the three schemas emitted by the driver:

  * ``domset-run/1`` -- one run record (``domset run --json``,
    src/api/result_json.cpp).
  * ``domset-bench/1`` -- one sweep document (``domset bench``,
    src/api/bench_runner.cpp): per-cell key, repeat timings, median, and
    an embedded domset-run/1 record, which is validated with the same
    rules as a standalone record.
  * ``domset-dynamic/1`` -- one replay document (``domset replay
    --json``, src/dyn/replay.cpp): one record per epoch (numbered
    contiguously from 1, each carrying a 16-hex solution digest and
    valid == true; full_resolve_ms / full_size present exactly when
    the epoch is marked sampled) plus a latency summary.
  * ``domset-serve/1`` -- one load-generator document (``domset load
    --json``, src/serve/load.cpp): op counts, query latency summaries
    (overall / during commit windows / commit round-trips), the served
    final epoch+size+digest, and epoch_digest_conflicts == 0 (an epoch
    is immutable once published).

With --expect-identical, additionally asserts that all domset-run/1
records (standalone files only) carry the same solution digest -- the CI
hook that proves every thread count produces bit-identical solutions
without shipping the solutions themselves.  The real-graph CI job reuses
it to prove the text, binary, and compressed loaders feed the solver the
same graph.  domset-dynamic/1 records join the comparison through their
summary.final_digest, proving replay runs are bit-identical across
thread counts; domset-serve/1 records join through final.digest, proving
the served state agrees with an offline replay of the admitted mutation
stream.

Records whose graph came from a file (family "file") must carry a
graph.source block (path, format in text|binary|compressed, load_ms);
generated families must not.

Exits 0 when every check passes, 1 otherwise, printing one line per
problem.  Stdlib only, so the CI job needs nothing beyond python3.
"""

import json
import sys

RUN_SCHEMA = "domset-run/1"
BENCH_SCHEMA = "domset-bench/1"
DYNAMIC_SCHEMA = "domset-dynamic/1"
SERVE_SCHEMA = "domset-serve/1"

# (path, type) pairs; bool is checked before int because bool is an int
# subclass in Python.
RUN_REQUIRED = [
    (("schema",), str),
    (("alg",), str),
    (("graph", "family"), str),
    (("graph", "nodes"), int),
    (("graph", "edges"), int),
    (("graph", "max_degree"), int),
    (("exec", "seed"), int),
    (("exec", "threads"), int),
    (("exec", "drop_probability"), (int, float)),
    (("exec", "faults"), str),
    (("exec", "congest_bit_limit"), int),
    (("params",), dict),
    (("result", "integral"), bool),
    (("result", "size"), int),
    (("result", "objective"), (int, float)),
    (("result", "ratio_bound"), (int, float)),
    (("result", "valid"), bool),
    (("result", "digest"), str),
    (("metrics", "rounds"), int),
    (("metrics", "messages_sent"), int),
    (("metrics", "bits_sent"), int),
    (("metrics", "max_message_bits"), int),
    (("metrics", "max_messages_per_node"), int),
    (("metrics", "messages_dropped"), int),
    (("metrics", "messages_lost_to_faults"), int),
    (("metrics", "messages_duplicated"), int),
    (("metrics", "node_rounds_down"), int),
    (("metrics", "nodes_crashed"), int),
    (("metrics", "congest_violation"), bool),
    (("metrics", "hit_round_limit"), bool),
    (("elapsed_ms",), (int, float)),
]

# graph.source block: required on records whose graph came from a file
# (family "file"), forbidden on generated families.
SOURCE_REQUIRED = [
    (("path",), str),
    (("format",), str),
    (("load_ms",), (int, float)),
]
SOURCE_FORMATS = ("text", "binary", "compressed")

# Optional result.repair block (present when a repair pass ran).
REPAIR_REQUIRED = [
    (("mode",), str),
    (("radius",), int),
    (("holes_before",), int),
    (("holes_after",), int),
    (("added",), int),
    (("touched_nodes",), int),
]

# Optional result.selection block (present on `--alg auto` runs: the
# probe evidence the meta-solver dispatched on, src/graph/probe.hpp).
SELECTION_REQUIRED = [
    (("selected_solver",), str),
    (("degeneracy",), int),
    (("arboricity_lower",), (int, float)),
    (("triangle_density",), (int, float)),
    (("degree_skew",), (int, float)),
    (("avg_degree",), (int, float)),
]

# Optional top-level coverage block (present on degraded runs).
COVERAGE_REQUIRED = [
    (("nodes",), int),
    (("holes",), int),
    (("covered_fraction",), (int, float)),
    (("max_hole_radius",), int),
    (("fully_covered",), bool),
    (("attribution",), list),
]

# One epoch record of a domset-dynamic/1 document (src/dyn/replay.cpp).
# full_resolve_ms / full_size / sampled are conditional: present exactly
# when the epoch sampled a from-scratch re-solve.
DYNAMIC_EPOCH_REQUIRED = [
    (("epoch",), int),
    (("mutations",), int),
    (("touched",), int),
    (("ball_nodes",), int),
    (("capped_nodes",), int),
    (("interior_nodes",), int),
    (("full_resolve",), bool),
    (("holes_patched",), int),
    (("changed",), int),
    (("size",), int),
    (("nodes",), int),
    (("edges",), int),
    (("digest",), str),
    (("apply_ms",), (int, float)),
    (("repair_ms",), (int, float)),
    (("verify_ms",), (int, float)),
    (("valid",), bool),
]

DYNAMIC_REQUIRED = [
    (("schema",), str),
    (("alg",), str),
    (("graph", "family"), str),
    (("graph", "nodes"), int),
    (("graph", "edges"), int),
    (("graph", "max_degree"), int),
    (("exec", "seed"), int),
    (("exec", "threads"), int),
    (("params",), dict),
    (("replay", "mutations"), str),
    (("replay", "batch"), int),
    (("replay", "radius"), int),
    (("replay", "full_fraction"), (int, float)),
    (("replay", "frontier_cap"), int),
    (("replay", "sample_full"), int),
    (("replay", "epochs"), int),
    (("epochs",), list),
    (("summary", "epochs"), int),
    (("summary", "full_resolves"), int),
    (("summary", "initial_size"), int),
    (("summary", "final_size"), int),
    (("summary", "final_digest"), str),
    (("summary", "initial_solve_ms"), (int, float)),
    (("summary", "median_repair_ms"), (int, float)),
    (("summary", "p99_repair_ms"), (int, float)),
    (("summary", "median_full_resolve_ms"), (int, float)),
    (("summary", "speedup"), (int, float)),
]

# A latency summary of a domset-serve/1 document ({count, p50_ms, p99_ms}).
SERVE_LATENCY_REQUIRED = [
    (("count",), int),
    (("p50_ms",), (int, float)),
    (("p99_ms",), (int, float)),
]

SERVE_REQUIRED = [
    (("schema",), str),
    (("alg",), str),
    (("graph", "family"), str),
    (("graph", "nodes"), int),
    (("graph", "edges"), int),
    (("graph", "max_degree"), int),
    (("exec", "seed"), int),
    (("exec", "threads"), int),
    (("params",), dict),
    (("serve", "socket"), str),
    (("serve", "bias"), str),
    (("serve", "clients"), int),
    (("serve", "queries_per_client"), int),
    (("serve", "mutations"), int),
    (("serve", "batch"), int),
    (("ops", "mutate"), int),
    (("ops", "commit"), int),
    (("ops", "member"), int),
    (("ops", "stats"), int),
    (("ops", "digest"), int),
    (("ops", "set"), int),
    (("latency", "query"), dict),
    (("latency", "query_during_repair"), dict),
    (("latency", "commit"), dict),
    (("final", "epoch"), int),
    (("final", "size"), int),
    (("final", "digest"), str),
    (("epoch_digest_conflicts",), int),
]

# Cell keys of a domset-bench/1 document, next to the embedded record.
CELL_REQUIRED = [
    (("alg",), str),
    (("graph",), str),
    (("n",), int),
    (("seed",), int),
    (("threads",), int),
    (("drop",), (int, float)),
    (("faults",), str),
    (("median_ms",), (int, float)),
    (("times_ms",), list),
    (("rounds",), int),
    (("digest",), str),
    (("run",), dict),
]


def lookup(record, path):
    node = record
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None, False
        node = node[key]
    return node, True


def check_required(record, required, label):
    problems = []
    for key_path, expected in required:
        value, found = lookup(record, key_path)
        dotted = ".".join(key_path)
        if not found:
            problems.append(f"{label}: missing required key '{dotted}'")
            continue
        if expected is not bool and isinstance(value, bool):
            problems.append(f"{label}: key '{dotted}' must not be a boolean")
        elif not isinstance(value, expected):
            problems.append(
                f"{label}: key '{dotted}' has type {type(value).__name__}"
            )
    return problems


def is_digest(value):
    return (isinstance(value, str) and len(value) == 16
            and all(c in "0123456789abcdef" for c in value))


def is_degraded(record):
    """True when the record's exec injects unreliability (loss or faults):
    only such runs may legitimately carry result.valid == false."""
    exec_block = record.get("exec", {})
    drop = exec_block.get("drop_probability", 0)
    if isinstance(drop, (int, float)) and not isinstance(drop, bool) and \
            drop > 0:
        return True
    return exec_block.get("faults", "none") != "none"


def validate_run_record(record, label):
    """Problems with one domset-run/1 record (standalone or embedded)."""
    problems = check_required(record, RUN_REQUIRED, label)
    if record.get("schema") != RUN_SCHEMA:
        problems.append(
            f"{label}: schema is {record.get('schema')!r}, want {RUN_SCHEMA!r}"
        )
    if not is_digest(record.get("result", {}).get("digest", "")):
        problems.append(f"{label}: digest must be 16 lowercase hex chars")
    if record.get("result", {}).get("valid") is not True \
            and not is_degraded(record):
        problems.append(
            f"{label}: result.valid is not true on a reliable run"
        )
    for key, value in record.get("params", {}).items():
        if not isinstance(value, str):
            problems.append(f"{label}: param '{key}' must be a string echo")
    graph = record.get("graph", {})
    source = graph.get("source") if isinstance(graph, dict) else None
    family = graph.get("family") if isinstance(graph, dict) else None
    if family == "file" and source is None:
        problems.append(
            f"{label}: file-loaded graphs must carry a graph.source block"
        )
    if source is not None:
        if isinstance(source, dict):
            problems.extend(
                check_required(source, SOURCE_REQUIRED,
                               f"{label}.graph.source")
            )
            if family != "file":
                problems.append(
                    f"{label}: graph.source on a generated family "
                    f"({family!r})"
                )
            if not source.get("path"):
                problems.append(
                    f"{label}.graph.source: path must be non-empty"
                )
            if source.get("format") not in SOURCE_FORMATS:
                problems.append(
                    f"{label}.graph.source: format is "
                    f"{source.get('format')!r}, want one of {SOURCE_FORMATS}"
                )
            load_ms = source.get("load_ms")
            if isinstance(load_ms, (int, float)) \
                    and not isinstance(load_ms, bool) and load_ms < 0:
                problems.append(
                    f"{label}.graph.source: load_ms must be >= 0"
                )
        else:
            problems.append(f"{label}: graph.source must be an object")
    repair = record.get("result", {}).get("repair")
    if repair is not None:
        if isinstance(repair, dict):
            problems.extend(
                check_required(repair, REPAIR_REQUIRED, f"{label}.repair")
            )
            if repair.get("mode") not in ("radius", "greedy"):
                problems.append(
                    f"{label}.repair: mode is {repair.get('mode')!r}"
                )
            if repair.get("holes_after") != 0:
                problems.append(
                    f"{label}.repair: holes_after must be 0 (repair "
                    "enforces validity)"
                )
        else:
            problems.append(f"{label}: result.repair must be an object")
    selection = record.get("result", {}).get("selection")
    if selection is not None:
        if isinstance(selection, dict):
            problems.extend(
                check_required(selection, SELECTION_REQUIRED,
                               f"{label}.selection")
            )
            if not selection.get("selected_solver"):
                problems.append(
                    f"{label}.selection: selected_solver must be non-empty"
                )
            for key in ("arboricity_lower", "triangle_density",
                        "degree_skew", "avg_degree"):
                value = selection.get(key)
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool) and value < 0:
                    problems.append(
                        f"{label}.selection: {key} must be >= 0"
                    )
        else:
            problems.append(f"{label}: result.selection must be an object")
    coverage = record.get("coverage")
    if coverage is not None:
        if isinstance(coverage, dict):
            problems.extend(
                check_required(coverage, COVERAGE_REQUIRED,
                               f"{label}.coverage")
            )
            for i, entry in enumerate(coverage.get("attribution") or []):
                if not isinstance(entry, dict) \
                        or not isinstance(entry.get("fault"), str) \
                        or isinstance(entry.get("holes"), bool) \
                        or not isinstance(entry.get("holes"), int):
                    problems.append(
                        f"{label}.coverage: attribution[{i}] must be "
                        "{{fault: str, holes: int}}"
                    )
            if not is_degraded(record):
                problems.append(
                    f"{label}: coverage block on a reliable run"
                )
        else:
            problems.append(f"{label}: coverage must be an object")
    return problems


def validate_bench_document(doc, label):
    """Problems with one domset-bench/1 document, cells included."""
    problems = []
    repeats = doc.get("repeats")
    if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
        problems.append(f"{label}: repeats must be a positive integer")
        repeats = None
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append(f"{label}: cells must be a non-empty list")
        return problems
    if doc.get("cell_count") != len(cells):
        problems.append(
            f"{label}: cell_count is {doc.get('cell_count')!r}, "
            f"want {len(cells)}"
        )
    seen_keys = set()
    for index, cell in enumerate(cells):
        cell_label = f"{label}: cell[{index}]"
        if not isinstance(cell, dict):
            problems.append(f"{cell_label}: not an object")
            continue
        problems.extend(check_required(cell, CELL_REQUIRED, cell_label))
        if not is_digest(cell.get("digest", "")):
            problems.append(
                f"{cell_label}: digest must be 16 lowercase hex chars"
            )
        times = cell.get("times_ms", [])
        if isinstance(times, list):
            if repeats is not None and len(times) != repeats:
                problems.append(
                    f"{cell_label}: {len(times)} timings for "
                    f"{repeats} repeats"
                )
            for t in times:
                if isinstance(t, bool) or not isinstance(t, (int, float)):
                    problems.append(
                        f"{cell_label}: times_ms entries must be numbers"
                    )
                    break
        run = cell.get("run")
        if isinstance(run, dict):
            problems.extend(validate_run_record(run, f"{cell_label}.run"))
            run_digest = run.get("result", {}).get("digest")
            if is_digest(cell.get("digest", "")) and run_digest is not None \
                    and cell.get("digest") != run_digest:
                problems.append(
                    f"{cell_label}: cell digest {cell.get('digest')} != "
                    f"embedded record digest {run_digest}"
                )
        key = tuple(cell.get(k) for k in
                    ("alg", "graph", "n", "seed", "threads", "drop",
                     "faults"))
        if key in seen_keys:
            problems.append(f"{cell_label}: duplicate cell key {key}")
        seen_keys.add(key)
    return problems


def validate_dynamic_document(doc, label):
    """Problems with one domset-dynamic/1 replay document."""
    problems = check_required(doc, DYNAMIC_REQUIRED, label)
    for key, value in doc.get("params", {}).items():
        if not isinstance(value, str):
            problems.append(f"{label}: param '{key}' must be a string echo")
    epochs = doc.get("epochs")
    if not isinstance(epochs, list):
        return problems
    for index, ep in enumerate(epochs):
        ep_label = f"{label}: epochs[{index}]"
        if not isinstance(ep, dict):
            problems.append(f"{ep_label}: not an object")
            continue
        problems.extend(check_required(ep, DYNAMIC_EPOCH_REQUIRED, ep_label))
        # Epoch 0 is the initial solve; replay records start at 1 and
        # advance by exactly one per batch.
        if ep.get("epoch") != index + 1:
            problems.append(
                f"{ep_label}: epoch is {ep.get('epoch')!r}, want {index + 1} "
                "(contiguous from 1)"
            )
        if not is_digest(ep.get("digest", "")):
            problems.append(
                f"{ep_label}: digest must be 16 lowercase hex chars"
            )
        if ep.get("valid") is not True:
            problems.append(
                f"{ep_label}: valid must be true (the runner throws on a "
                "failed verification; a false here is a corrupt document)"
            )
        sampled = ep.get("sampled", False)
        has_full = "full_resolve_ms" in ep or "full_size" in ep
        if sampled:
            if not isinstance(ep.get("full_resolve_ms"), (int, float)) \
                    or isinstance(ep.get("full_resolve_ms"), bool):
                problems.append(
                    f"{ep_label}: sampled epoch must carry numeric "
                    "full_resolve_ms"
                )
            if not isinstance(ep.get("full_size"), int) \
                    or isinstance(ep.get("full_size"), bool):
                problems.append(
                    f"{ep_label}: sampled epoch must carry integer full_size"
                )
        elif has_full:
            problems.append(
                f"{ep_label}: full_resolve_ms/full_size on an unsampled epoch"
            )
    summary = doc.get("summary", {})
    if isinstance(summary, dict):
        if isinstance(summary.get("epochs"), int) \
                and summary.get("epochs") != len(epochs):
            problems.append(
                f"{label}: summary.epochs is {summary.get('epochs')!r}, "
                f"want {len(epochs)}"
            )
        if not is_digest(summary.get("final_digest", "")):
            problems.append(
                f"{label}: summary.final_digest must be 16 lowercase hex "
                "chars"
            )
        elif epochs and isinstance(epochs[-1], dict) \
                and is_digest(epochs[-1].get("digest", "")) \
                and summary.get("final_digest") != epochs[-1].get("digest"):
            problems.append(
                f"{label}: summary.final_digest "
                f"{summary.get('final_digest')} != last epoch digest "
                f"{epochs[-1].get('digest')}"
            )
    return problems


def validate_serve_document(doc, label):
    """Problems with one domset-serve/1 load-generator document."""
    problems = check_required(doc, SERVE_REQUIRED, label)
    for key, value in doc.get("params", {}).items():
        if not isinstance(value, str):
            problems.append(f"{label}: param '{key}' must be a string echo")
    for which in ("query", "query_during_repair", "commit"):
        block = doc.get("latency", {}).get(which)
        if isinstance(block, dict):
            problems.extend(
                check_required(block, SERVE_LATENCY_REQUIRED,
                               f"{label}.latency.{which}")
            )
    if not is_digest(doc.get("final", {}).get("digest", "")):
        problems.append(
            f"{label}: final.digest must be 16 lowercase hex chars"
        )
    if doc.get("epoch_digest_conflicts") != 0:
        problems.append(
            f"{label}: epoch_digest_conflicts is "
            f"{doc.get('epoch_digest_conflicts')!r} -- an epoch is "
            "immutable once published, any conflict is a consistency bug"
        )
    ops = doc.get("ops", {})
    query_count = doc.get("latency", {}).get("query", {}).get("count")
    op_total = sum(
        v for k, v in ops.items()
        if k in ("member", "stats", "digest", "set")
        and isinstance(v, int) and not isinstance(v, bool)
    )
    if isinstance(query_count, int) and not isinstance(query_count, bool) \
            and query_count != op_total:
        problems.append(
            f"{label}: latency.query.count is {query_count}, but the "
            f"query op counts sum to {op_total}"
        )
    return problems


def validate(path):
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, [f"{path}: unreadable or invalid JSON: {e}"]

    schema = record.get("schema") if isinstance(record, dict) else None
    if schema == BENCH_SCHEMA:
        return record, validate_bench_document(record, path)
    if schema == DYNAMIC_SCHEMA:
        return record, validate_dynamic_document(record, path)
    if schema == SERVE_SCHEMA:
        return record, validate_serve_document(record, path)
    return record, validate_run_record(record, path)


def main(argv):
    expect_identical = "--expect-identical" in argv
    files = [a for a in argv if a != "--expect-identical"]
    if not files:
        print(__doc__.strip())
        return 1

    all_problems = []
    digests = {}
    for path in files:
        record, problems = validate(path)
        all_problems.extend(problems)
        if record is None:
            continue
        if record.get("schema") == DYNAMIC_SCHEMA:
            digests[path] = record.get("summary", {}).get("final_digest")
        elif record.get("schema") == SERVE_SCHEMA:
            digests[path] = record.get("final", {}).get("digest")
        elif record.get("schema") != BENCH_SCHEMA:
            digests[path] = record.get("result", {}).get("digest")

    if expect_identical and len(set(digests.values())) > 1:
        all_problems.append(
            "solution digests differ across records (thread counts must "
            "be bit-identical): "
            + ", ".join(f"{p}={d}" for p, d in sorted(digests.items()))
        )

    for problem in all_problems:
        print(problem)
    if not all_problems:
        suffix = " (identical digests)" if expect_identical else ""
        print(f"OK: {len(files)} file(s) valid{suffix}")
    return 1 if all_problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
