#!/usr/bin/env python3
"""End-to-end check of every observability output of rqcheck and rqeval.

    bench/test_cli_observability.py <rqcheck-binary> <rqeval-binary>

Runs each CLI with all seven observability flags (--trace, --profile,
--profile-json, --stats-json, --chrome-trace, --flight-dump,
--prometheus), in both the `--flag value` and `--flag=value` spellings,
and checks what each output carries:
  * --stats-json: schema rq-obs/2 with span rows and span stats;
  * --profile-json: schema rq-profile/1 with the query's notes
    (path.pipeline, rq.method, uc2rpq.method) and, for a batched check,
    per-worker rows;
  * --chrome-trace: a traceEvents array of complete ("X") events;
  * --flight-dump: a ring entry naming the query kind;
  * --prometheus: an exposition that bench/check_prometheus.py accepts;
  * --trace / --profile: the span tree on stderr, the text report on
    stdout after the verdict or the answers.
It also pins the exit codes: 0/1 for verdicts, 3 (rqcheck) and 2 (rqeval)
for an unwritable output path.
Exit status: 0 = pass, 1 = any failure.
"""

import json
import os
import subprocess
import sys
import tempfile

import check_prometheus

FAILURES = []


def expect(cond, message):
    if not cond:
        FAILURES.append(message)
    return cond


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def obs_flags(tmp, tag, equals):
    """The seven flags, writing every file output under `tmp`."""
    paths = {name: os.path.join(tmp, f"{tag}.{name}")
             for name in ("profile", "stats", "chrome", "flight", "prom")}
    valued = [("--profile-json", paths["profile"]),
              ("--stats-json", paths["stats"]),
              ("--chrome-trace", paths["chrome"]),
              ("--flight-dump", paths["flight"]),
              ("--prometheus", paths["prom"])]
    argv = ["--trace", "--profile"]
    for flag, path in valued:
        argv += [f"{flag}={path}"] if equals else [flag, path]
    return argv, paths


def check_outputs(label, proc, paths, kind, span, notes):
    """Checks one run's outputs; returns the parsed profile."""
    expect(span in proc.stderr, f"{label}: --trace tree lacks {span}")
    report = proc.stdout.find("== rq-profile/1")
    expect(report > 0, f"{label}: --profile text missing or first")

    with open(paths["stats"]) as f:
        stats = json.load(f)
    expect(stats.get("schema") == "rq-obs/2", f"{label}: stats schema")
    names = {row["name"] for row in stats.get("spans", [])}
    expect(span in names, f"{label}: rq-obs/2 spans lack {span}: {names}")
    for row in stats.get("spans", []):
        for key in ("start_ns", "duration_ns", "depth", "parent", "tid",
                    "attrs"):
            expect(key in row, f"{label}: span row lacks {key}")
    expect(any(s["name"] == span for s in stats.get("span_stats", [])),
           f"{label}: rq-obs/2 span_stats lack {span}")
    for key in ("counters", "gauges", "histograms", "dropped_spans"):
        expect(key in stats, f"{label}: rq-obs/2 lacks {key}")

    with open(paths["profile"]) as f:
        profile = json.load(f)
    expect(profile.get("schema") == "rq-profile/1", f"{label}: profile schema")
    for key in ("tool", "class", "query", "collected", "wall_ns", "counters",
                "histograms", "gauges", "span_stats", "workers", "memory",
                "stats", "notes"):
        expect(key in profile, f"{label}: rq-profile/1 lacks {key}")
    for key, value in notes.items():
        expect(profile.get("notes", {}).get(key) == value,
               f"{label}: note {key} is {profile.get('notes')}")

    with open(paths["chrome"]) as f:
        chrome = json.load(f)
    events = chrome.get("traceEvents", [])
    complete = [e for e in events if e.get("ph") == "X"]
    expect(any(e.get("name") == span for e in complete),
           f"{label}: chrome trace lacks an X event for {span}")
    for e in complete:
        for key in ("name", "cat", "pid", "tid", "ts", "dur"):
            expect(key in e, f"{label}: chrome event lacks {key}")

    with open(paths["flight"]) as f:
        flight = f.read()
    expect(flight.startswith("== rq flight recorder:"),
           f"{label}: flight dump header")
    expect(f"kind={kind} " in flight, f"{label}: flight dump lacks {kind}")
    expect("== slow queries" in flight, f"{label}: flight dump slow log")

    errors = check_prometheus.check_file(paths["prom"])
    expect(not errors, f"{label}: prometheus: {errors}")
    return profile


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rqcheck, rqeval = argv[1], argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        # rqcheck: a 2RPQ pair through the fold pipeline.
        flags, paths = obs_flags(tmp, "2rpq", equals=False)
        proc = run([rqcheck, "--jobs", "2"] + flags + ["2rpq", "p", "p p- p"])
        if expect(proc.returncode == 0, f"2rpq exit {proc.returncode}"):
            expect(proc.stdout.startswith("verdict: proved"), "2rpq verdict")
            check_outputs("2rpq", proc, paths, "path-containment",
                          "containment.fold_pipeline",
                          {"path.pipeline": "2rpq-fold"})

        # rqcheck: an RQ pair (refuted, exit 1), `--flag=value` spelling.
        flags, paths = obs_flags(tmp, "rq", equals=True)
        proc = run([rqcheck, "--jobs=2"] + flags +
                   ["rq", "q(x,y) := tc[x,y](a(x,y))", "q(x,y) := a(x,y)"])
        if expect(proc.returncode == 1, f"rq exit {proc.returncode}"):
            check_outputs("rq", proc, paths, "rq-containment",
                          "rq.containment", {"rq.method": "2rpq-fold"})

        # rqcheck: a UC2RPQ whose disjuncts fan out as a batch.
        flags, paths = obs_flags(tmp, "uc2rpq", equals=False)
        proc = run([rqcheck, "--jobs", "2"] + flags +
                   ["uc2rpq",
                    "q(x,y) :- (a)(x,y)\nq(x,y) :- (b c)(x,y)\n"
                    "q(x,y) :- (c-)(x,y)",
                    "q(x,y) :- (a|b c|c-|d)(x,y)"])
        if expect(proc.returncode == 0, f"uc2rpq exit {proc.returncode}"):
            profile = check_outputs("uc2rpq", proc, paths,
                                    "uc2rpq-containment", "containment.batch",
                                    {"uc2rpq.method": "2rpq-fold"})
            workers = profile.get("workers", [])
            expect(sum(w.get("jobs", 0) for w in workers) == 3,
                   f"uc2rpq: worker rows {workers}")
            for w in workers:
                expect({"worker", "jobs", "busy_ns"} <= set(w),
                       f"uc2rpq: worker row {w}")
            expect("batch workers:" in proc.stdout,
                   "uc2rpq: --profile text lacks the worker rows")

        graph = os.path.join(tmp, "g.txt")
        with open(graph, "w") as f:
            f.write("alice knows bob\nbob knows carol\ncarol knows alice\n"
                    "bob member g1\n")

        # rqeval: a path query (multi-source product BFS).
        flags, paths = obs_flags(tmp, "path", equals=True)
        proc = run([rqeval, "--jobs=2"] + flags + [graph, "path", "knows+"])
        if expect(proc.returncode == 0, f"path exit {proc.returncode}"):
            expect("-- 9 tuples" in proc.stdout, "path answer count")
            check_outputs("path", proc, paths, "graph-eval",
                          "graph.eval_sources", {})

        # rqeval: an RQ.
        flags, paths = obs_flags(tmp, "rqeval", equals=False)
        proc = run([rqeval] + flags +
                   [graph, "rq", "q(x,y) := tc[x,y](knows(x,y))"])
        if expect(proc.returncode == 0, f"rq eval exit {proc.returncode}"):
            expect("-- 9 tuples" in proc.stdout, "rq eval answer count")
            check_outputs("rqeval", proc, paths, "rq-eval", "rq.eval", {})

        # An output that cannot be written fails with the CLI's error code.
        bad = os.path.join(tmp, "missing-dir", "out.prom")
        proc = run([rqcheck, "--prometheus", bad, "rpq", "a", "a|b"])
        expect(proc.returncode == 3, f"rqcheck bad path exit {proc.returncode}")
        proc = run([rqeval, "--prometheus", bad, graph, "path", "knows"])
        expect(proc.returncode == 2, f"rqeval bad path exit {proc.returncode}")

    for failure in FAILURES:
        print(f"FAIL: {failure}", file=sys.stderr)
    if FAILURES:
        return 1
    print("cli observability outputs: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
