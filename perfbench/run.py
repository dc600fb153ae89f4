#!/usr/bin/env python3
"""GMine end-to-end benchmark: one command per workload.

    python3 perfbench/run.py --workload explore|summarize|edit \
        --seed N --seconds T --trace 0|1

Builds the `gmine` CLI and the benchmark's own programs from source into
.bench_build/, generates the seeded surrogate graph, cold-starts the real
front end (`gmine gateway` or `gmine server --writable on --wal on`)
several times to time set-up, drives the measured phase from one load
generator process, checks every reply, and prints the end-to-end metrics.
With --trace 1 it also replays the same seeded op scripts in-process with
spans around each layer and prints the per-layer metrics. The last line
of standard output is one JSON object; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench")
STORE = "g"  # catalog name of the served store

# Held out: never used while the benchmark was tuned; keep it for claims.
HELD_OUT_SEED = 424242

# name, unit, what it measures (bounds live in BENCHMARK.json)
END_TO_END = [
    ("setup_s", "s", "build + cold start until the first op is answered"),
    ("nav_p50_ms", "ms", "median navigation gesture latency"),
    ("nav_tail_ms", "ms", "navigation tail (percentile printed)"),
    ("nav_per_s", "1/s", "navigation gestures completed per second"),
    ("work_mean_ms", "ms", "mean heavy-op latency"),
    ("work_tail_ms", "ms", "heavy-op tail (percentile printed)"),
    ("work_per_s", "1/s", "heavy ops completed per second"),
    ("mine_s", "s", "median PageRank top-20 time"),
    ("peak_rss_mb", "MB", "peak RSS of the serving process"),
    ("store_bytes_per_edge", "B",
     "store + WAL bytes per edge (edit: mean over acked batches)"),
]

# Per-layer metrics of the traced run: (name, unit, what should move,
# measured on every workload). Those measured everywhere go into the JSON
# result; the others are printed for the workloads that use the layer.
PER_LAYER = [
    ("http.ws_overhead_us", "us", "explore/nav_p50_ms, explore/nav_per_s", False),
    ("http.rest_overhead_ms", "ms", "summarize/work_mean_ms", False),
    ("http.hol_wait_ms", "ms", "summarize/nav_p50_ms, summarize/nav_tail_ms", False),
    ("http.service_us", "us", "explore/nav_p50_ms", False),
    ("http.errors", "count", "explore/fail_ratio, summarize/fail_ratio", False),
    ("net.overhead_us", "us", "edit/nav_p50_ms", False),
    ("net.service_us", "us", "edit/nav_p50_ms", False),
    ("net.errors", "count", "edit/fail_ratio", False),
    ("core.session_wait_us", "us", "explore/nav_tail_ms, edit/nav_p50_ms", True),
    ("core.epoch_park_ms", "ms", "edit/nav_p50_ms, edit/nav_tail_ms", False),
    ("core.epoch_bumps", "count", "edit/nav_tail_ms", False),
    ("core.store_opens", "count", "summarize/work_mean_ms", False),
    ("core.render_us", "us", "explore/work_mean_ms", False),
    ("core.edit_commit_ms", "ms", "edit/work_mean_ms", False),
    ("core.edits_per_group", "1", "edit/work_per_s", False),
    ("gtree.focus_us", "us", "explore/nav_p50_ms", True),
    ("gtree.display_size", "count", "explore/nav_p50_ms", True),
    ("gtree.leaf_hit_us", "us", "explore/nav_p50_ms", True),
    ("gtree.leaf_miss_us", "us", "explore/nav_tail_ms", True),
    ("gtree.materialize_ms", "ms", "summarize/work_mean_ms", False),
    ("gtree.open_ms", "ms", "setup_s (all workloads)", True),
    ("gtree.build_s", "s", "explore/setup_s, edit/setup_s", False),
    ("gtree.connectivity_s", "s", "explore/setup_s, edit/setup_s", False),
    ("gtree.store_write_s", "s", "explore/setup_s, edit/setup_s", False),
    ("gtree.stream_build_s", "s", "summarize/setup_s", False),
    ("gtree.repair_ms", "ms", "edit/work_mean_ms", False),
    ("gtree.bytes_appended_per_edit", "B", "edit/store_bytes_per_edge", False),
    ("gtree.pages_written_per_edit", "count", "edit/store_bytes_per_edge", False),
    ("gtree.compactions", "count", "edit/work_tail_ms", False),
    ("gtree.live_fraction", "1", "edit/store_bytes_per_edge", False),
    ("storage.pool_hit_ratio", "1", "explore/nav_tail_ms, summarize/mine_s", True),
    ("storage.pages_read_per_op", "count", "explore/nav_tail_ms, summarize/work_mean_ms", True),
    ("storage.bytes_read_per_op", "B", "explore/nav_tail_ms", True),
    ("storage.evictions_per_op", "count", "explore/nav_tail_ms, summarize/mine_s", False),
    ("storage.pool_resident_mb", "MB", "peak_rss_mb (all workloads)", True),
    ("storage.wal_append_us", "us", "edit/work_mean_ms", False),
    ("storage.wal_sync_us", "us", "edit/work_mean_ms", False),
    ("storage.wal_bytes_per_edit", "B", "edit/store_bytes_per_edge", False),
    ("storage.sort_runs", "count", "summarize/setup_s", False),
    ("storage.spilled_mb", "MB", "summarize/setup_s", False),
    ("query.parse_plan_us", "us", "explore/work_mean_ms", True),
    ("query.execute_ms", "ms", "explore/work_mean_ms, summarize/work_mean_ms", True),
    ("query.pages_scanned_ratio", "1", "explore/work_mean_ms", False),
    ("query.rows_scanned_per_row", "1", "explore/work_mean_ms", False),
    ("csg.extract_ms", "ms", "summarize/work_mean_ms", False),
    ("csg.rwr_iterations", "count", "summarize/work_mean_ms", False),
    ("csg.candidates", "count", "summarize/work_tail_ms", False),
    ("mining.pagerank_ms", "ms", "summarize/mine_s", False),
    ("mining.sweeps", "count", "summarize/mine_s", False),
    ("mining.job_wait_ms", "ms", "summarize/mine_s", False),
]


class BenchError(Exception):
    """A set-up or infrastructure failure: exit nonzero, print no result."""


def say(line=""):
    print(line, flush=True)


def run_quiet(cmd, log_path, env=None, timeout=900):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-3000:]
        raise BenchError("%s failed (exit %d):\n%s" %
                         (" ".join(cmd[:3]), proc.returncode, tail))


def build():
    """Builds gmine and the benchmark programs; incremental after the first."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("repository sources missing: %s" % need)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], log)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
               "gmine_cli", "perfbench_load", "perfbench_trace"], log)
    return {
        "gmine": os.path.join(CMAKE_DIR, "gmine", "gmine"),
        "load": os.path.join(CMAKE_DIR, "perfbench_load"),
        "trace": os.path.join(CMAKE_DIR, "perfbench_trace"),
    }


def fingerprint(paths):
    """Identifies the program + benchmark build a repeat count came from."""
    h = hashlib.sha256()
    for p in sorted(paths):
        with open(p, "rb") as f:
            h.update(f.read())
    for name in sorted(os.listdir(HERE)):
        full = os.path.join(HERE, name)
        if os.path.isfile(full):
            with open(full, "rb") as f:
                h.update(name.encode() + f.read())
    return h.hexdigest()[:16]


# ----------------------------------------------------------- the servers

class Server:
    """One cold-started gmine front end."""

    def __init__(self, bins, cfg, store_dir, env, log_path):
        self.cfg = cfg
        self.gateway = cfg["workload"] != "edit"
        store = os.path.join(store_dir, STORE + ".gtree")
        port_file = os.path.join(store_dir, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        if self.gateway:
            cmd = [bins["gmine"], "gateway", store_dir, "--port", "0",
                   "--port-file", port_file, "--reactor-threads", "1",
                   "--mem-budget-mb", str(cfg["mem_budget_mb"])]
        else:
            cmd = [bins["gmine"], "server", store, "--port", "0",
                   "--port-file", port_file, "--writable", "on",
                   "--wal", "on", "--max-clients", "4", "--threads", "4",
                   "--mem-budget-mb", str(cfg["mem_budget_mb"])]
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT, env=env)
        deadline = time.monotonic() + 60
        while not os.path.exists(port_file):
            if self.proc.poll() is not None:
                raise BenchError("gmine exited during start-up; see " +
                                 log_path)
            if time.monotonic() > deadline:
                raise BenchError("gmine did not start within 60 s")
            time.sleep(0.0005)
        with open(port_file) as f:
            self.port = int(f.read().strip())

    def first_op(self):
        """Answers one navigation op; opens the store lazily on a gateway."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=60) as s:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            f = s.makefile("rb")
            if self.gateway:
                s.sendall(("GET /api/v1/stores/%s/summary HTTP/1.1\r\n"
                           "Host: 127.0.0.1\r\n\r\n" % STORE).encode())
                status = f.readline().decode()
                length = 0
                while True:
                    header = f.readline().decode().strip()
                    if not header:
                        break
                    name, _, value = header.partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                body = f.read(length).decode()
                if " 200 " not in status or "focus" not in body:
                    raise BenchError("first op failed: %s %s" %
                                     (status.strip(), body[:200]))
            else:
                greeting = f.readline().decode()
                s.sendall(b"summary\n")
                reply = f.readline().decode()
                if not greeting.startswith("OK") or \
                        not reply.startswith("OK focus="):
                    raise BenchError("first op failed: " + reply.strip())

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self):
        if self.proc.poll() is None:
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=10) as s:
                    if self.gateway:
                        s.sendall(b"POST /api/v1/shutdown HTTP/1.1\r\n"
                                  b"Host: 127.0.0.1\r\nContent-Length: 0\r\n"
                                  b"Connection: close\r\n\r\n")
                    else:
                        s.makefile("rb").readline()
                        s.sendall(b"shutdown\n")
                    s.recv(4096)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()


def build_store(bins, cfg, graph, store_dir, env, log_path):
    store = os.path.join(store_dir, STORE + ".gtree")
    if cfg["stream_build"]:
        cmd = [bins["gmine"], "build", "--stream", "--graph",
               graph + ".edges", "--labels", graph + ".labels", "--out",
               store, "--leaf-size", str(cfg["stream_leaf_size"]),
               "--fanout", str(cfg["stream_fanout"]), "--mem-budget-mb",
               str(cfg["stream_sort_mb"])]
    else:
        cmd = [bins["gmine"], "build", "--graph", graph + ".edges",
               "--labels", graph + ".labels", "--out", store, "--levels",
               str(cfg["build_levels"]), "--fanout", str(cfg["build_fanout"]),
               "--threads", str(cfg["gmine_threads"])]
    run_quiet(cmd, log_path, env=env)
    return store


def cold_starts(bins, cfg, graph, store_dir, env, reps, keep_last):
    """Times `reps` cold starts; the last server stays up if `keep_last`."""
    samples = []
    server = None
    try:
        for rep in range(reps):
            if server is not None:
                server.stop()
                server = None
            shutil.rmtree(store_dir, ignore_errors=True)
            os.makedirs(store_dir)
            t0 = time.perf_counter()
            build_store(bins, cfg, graph, store_dir, env,
                        os.path.join(store_dir, "build-%d.log" % rep))
            server = Server(bins, cfg, store_dir, env,
                            os.path.join(store_dir, "server-%d.log" % rep))
            server.first_op()
            samples.append(time.perf_counter() - t0)
        if not keep_last:
            server.stop()
            server = None
    except BaseException:
        if server is not None:
            server.kill()
        raise
    return server, samples


# ---------------------------------------------------------------- checks

def repeat_check(workload, seed, trace, fp, counts):
    """Exact-repeat counts must match an earlier run of the same seed."""
    path = os.path.join(BUILD, "repeat", "%s-seed%d-trace%d.json" %
                        (workload, seed, trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        if old.get("fingerprint") == fp and old.get("counts") != counts:
            return "exact-repeat counts differ from an earlier run of " \
                   "seed %d: %s vs %s" % (seed, old.get("counts"), counts)
    with open(path, "w") as f:
        json.dump({"fingerprint": fp, "counts": counts}, f)
    return ""


def fmt(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["explore", "summarize", "edit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bins = build()
    cfg = json.loads(subprocess.check_output(
        [bins["load"], "config", "--workload", args.workload, "--seconds",
         str(args.seconds)]))
    work = os.path.join(BUILD, "run", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, GMINE_THREADS=str(cfg["gmine_threads"]))
    graph = os.path.join(work, "graph")
    sizes = json.loads(subprocess.check_output(
        [bins["load"], "gen", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--out", graph]))

    # Cold starts are split around the measured phase, so the median
    # spans the host's slower and faster spells rather than one moment.
    reps_before = (cfg["setup_reps"] + 1) // 2
    store = os.path.join(work, "stores", STORE + ".gtree")
    server = None
    try:
        server, setup = cold_starts(bins, cfg, graph,
                                    os.path.dirname(store), env,
                                    reps_before, keep_last=True)
        store_bytes_built = os.path.getsize(store)
        load = subprocess.run(
            [bins["load"], "run", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--port",
             str(server.port), "--store", STORE, "--store-file", store],
            stdout=subprocess.PIPE, timeout=args.seconds + 150, env=env)
        try:
            wire = json.loads(load.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise BenchError("load generator printed no result (exit %d)" %
                             load.returncode)
        rss = server.peak_rss_mb()
        if server.stop() != 0:
            raise BenchError("gmine exited with an error; see its log")
        server = None
    finally:
        if server is not None:
            server.kill()

    store_bytes = os.path.getsize(store)
    wal = store + ".wal"
    if os.path.exists(wal):
        store_bytes += os.path.getsize(wal)
    setup += cold_starts(bins, cfg, graph, os.path.join(work, "stores-after"),
                         env, cfg["setup_reps"] - reps_before,
                         keep_last=False)[1]
    edges = wire["final_edges"] or sizes["edges"]
    measured = wire["measured_s"]
    nav, work_s, mine = wire["nav"], wire["work"], wire["mine"]
    e2e = {
        "setup_s": statistics.median(setup),
        "nav_p50_ms": nav["p50"],
        "nav_tail_ms": nav["tail"],
        "nav_per_s": nav["count"] / measured,
        # A mean: explore's heavy ops fall in separate clusters, and
        # a median jumps between them as their shares shift.
        "work_mean_ms": work_s["mean"],
        "work_tail_ms": work_s["tail"],
        "work_per_s": work_s["count"] / measured,
        "mine_s": mine["p50"] / 1000.0,
        "peak_rss_mb": rss,
        # Edits grow and compact the store, so edit averages its size
        # over every acknowledged batch; the other stores are read-only.
        "store_bytes_per_edge": wire.get("store_bytes_per_edge",
                                         store_bytes / edges),
    }
    attempted = wire["attempted"] + len(setup)
    failed = wire["failed"]
    problems = list(wire["errors"])

    say("== gmine perfbench: %s, seed %d%s, --seconds %d, %.1f s measured, "
        "trace %d" % (args.workload, args.seed,
                      " (held-out seed)" if args.seed == HELD_OUT_SEED else "",
                      args.seconds, measured, args.trace))
    nproc = os.cpu_count() or 1
    say("run context: nproc=%d GMINE_THREADS=%d build --threads %d "
        "pool --mem-budget-mb %d closed-loop clients %d" % (
            nproc, cfg["gmine_threads"], cfg["gmine_threads"],
            cfg["mem_budget_mb"],
            max(1, min(cfg["nav_clients"], nproc - 1))
            if cfg["nav_clients"] else 0))
    say("  input: %d nodes, %d edges; store %d B built, %d B at run end "
        "(store + WAL)" % (sizes["nodes"], sizes["edges"],
                           store_bytes_built, store_bytes))
    say("  config: " + json.dumps(cfg, sort_keys=True))
    say("  ops: " + json.dumps(wire["kinds"], sort_keys=True) +
        " attempted=%d failed=%d reseats=%d" %
        (wire["attempted"], wire["failed"], wire["reseats"]))
    if wire["lag"]["count"]:
        say("  paced generator lag: p50 %.3f ms, max %.3f ms" %
            (wire["lag"]["p50"], wire["lag"]["max"]))
    if args.workload == "edit":
        say("  flush policy: WAL durable, one fdatasync per group commit; "
            "%d batches from one writer" % cfg["edit_batches"])
    say("  setup_s samples: " + ", ".join("%.4f" % s for s in setup))
    say("end-to-end metrics:")
    for name, unit, what in END_TO_END:
        extra = ""
        if name in ("nav_tail_ms", "work_tail_ms"):
            s = nav if name == "nav_tail_ms" else work_s
            extra = "  (%s of %d samples, %d beyond%s)" % (
                s["tail_name"], s["count"], s["beyond"],
                "; fewer than 10" if s["beyond"] < 10 else "")
        elif name == "mine_s":
            extra = "  (median of %d)" % mine["count"]
        say("  %-22s %14s %-5s %s%s" % (name, fmt(e2e[name]), unit, what,
                                          extra))
    fail_ratio = failed / attempted if attempted else 1.0
    say("  %-22s %14s %-5s %s" % ("fail_ratio", fmt(fail_ratio), "1",
                                  "failed / attempted ops"))
    counts = {"store_bytes_per_edge": e2e["store_bytes_per_edge"]}

    metrics_out = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    if args.trace:
        layers, replay_counts, replay_e2e = traced_run(
            bins, cfg, args, graph, store, wire, env, work)
        counts.update(replay_counts)
        say("traced replay, end-to-end metrics in-process (traced - "
            "untraced wire run):")
        for name, unit, _ in END_TO_END:
            if name in replay_e2e:
                say("  %-22s %14s %-5s (%+.6g)" % (
                    name, fmt(replay_e2e[name]), unit,
                    replay_e2e[name] - e2e[name]))
        say("per-layer metrics (should move):")
        for name, unit, moves, _ in PER_LAYER:
            value = layers.get(name)
            say("  %-32s %14s %-5s %s" % (
                name, "idle" if value is None else fmt(value), unit, moves))
        metrics_out = {name: {"value": layers.get(name, 0.0), "unit": unit}
                       for name, unit, _, everywhere in PER_LAYER
                       if everywhere}
        with open(os.path.join(work, "layers.json"), "w") as f:
            json.dump({"layers": layers, "replay_e2e": replay_e2e}, f,
                      indent=1, sort_keys=True)

    say("exact-repeat counts: " + json.dumps(counts, sort_keys=True))
    repeat = repeat_check(args.workload, args.seed, args.trace,
                          fingerprint([bins["gmine"], bins["load"],
                                       bins["trace"]]), counts)
    if repeat:
        problems.append(repeat)
        failed += 1
    for p in problems:
        say("CHECK FAILED: " + p)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0 if correct else 1


def traced_run(bins, cfg, args, graph, store, wire, env, work):
    """Replays the op scripts in-process; returns (layers, counts, e2e)."""
    out = subprocess.run(
        [bins["trace"], "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--graph", graph,
         "--dir", os.path.join(work, "replay"), "--served-store", store],
        stdout=subprocess.PIPE, timeout=args.seconds * 3 + 150, env=env)
    try:
        traced = json.loads(out.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError("traced replay printed no result (exit %d)" %
                         out.returncode)
    if out.returncode != 0 or traced.get("errors"):
        raise BenchError("traced replay failed: %s" % traced.get("errors"))
    layers = dict(traced["layers"])
    replay = traced["e2e"]
    nav_wire = wire["nav"]["p50"]
    if args.workload == "explore":
        layers["http.ws_overhead_us"] = (nav_wire - replay["nav_p50_ms"]) * 1e3
    if args.workload == "summarize":
        layers["http.rest_overhead_ms"] = (wire["work"]["p50"] -
                                           replay["work_p50_ms"])
        layers["http.hol_wait_ms"] = nav_wire - replay["nav_service_p50_ms"]
        layers["mining.job_wait_ms"] = wire["mine_wait"]["p50"]
    if args.workload == "edit":
        layers["net.overhead_us"] = (nav_wire - replay["nav_p50_ms"]) * 1e3
    layers.update(server_counters(args.workload, wire))
    return layers, traced["repeat"], replay


def server_counters(workload, wire):
    """Per-layer values read from the server's own counters."""
    before, after = wire.get("stats_before"), wire.get("stats_after")
    if not before or not after:
        return {}
    if workload == "edit":
        def field(text, key):
            # Only the "server ..." section: the connection's own
            # section also has a requests= field.
            server = [p for p in text.split("|")
                      if p.strip().startswith("server ")]
            for tok in (server[0] if server else "").split():
                if tok.startswith(key + "="):
                    return float(tok.split("=", 1)[1])
            return 0.0
        # STATS reports the running average; recover the phase's own.
        req = field(after, "requests") - field(before, "requests")
        total = (field(after, "latency_avg_us") * field(after, "requests") -
                 field(before, "latency_avg_us") * field(before, "requests"))
        return {"net.service_us": total / req if req else 0.0,
                "net.errors": field(after, "errors") -
                field(before, "errors")}
    if "endpoints" not in before or "endpoints" not in after:
        return {}
    layers = {}
    eps_b = {e["endpoint"]: e for e in before["endpoints"]}
    busiest = None
    errors = 0
    for e in after["endpoints"]:
        b = eps_b.get(e["endpoint"], {"count": 0, "errors": 0,
                                      "total_micros": 0})
        count = e["count"] - b["count"]
        errors += e["errors"] - b["errors"]
        if count and (busiest is None or count > busiest[1]):
            busiest = (e["endpoint"], count,
                       (e["total_micros"] - b["total_micros"]) / count)
    if busiest is not None:
        layers["http.service_us"] = busiest[2]
    layers["http.errors"] = errors
    layers["core.store_opens"] = (after["catalog"]["opens"] -
                                  before["catalog"]["opens"])
    return layers


if __name__ == "__main__":
    # A terminated run still unwinds, so every server it started stops.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
    except (subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
