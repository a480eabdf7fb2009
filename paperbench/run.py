#!/usr/bin/env python3
"""Paper-row benchmark: build, run one workload, print every metric.

Usage (from the root of a checkout):
    python3 paperbench/run.py --workload fig7-lu|fig8-cg2|policy-zoo \
        --seed N --seconds S --trace 0|1

Builds paperbench/ twice under .bench_build/ (an optimised build and a
gprof-instrumented one, both compiling the checkout's unchanged src/), then
runs the workload:

  --trace 0  the timed run: end-to-end metrics (wall_s, setup_s,
             peak_rss_mb, sim_response_s)
  --trace 1  a timed run plus one traced round (simulated per-layer counts)
             and a profiled run of the gprof build (host seconds per src/
             module); the traced and profiled runs must reproduce the timed
             run exactly

Prints one "name value unit" line per metric, then, as the last line of
stdout, one JSON object with the keys correct, attempted, failed, metrics.
Build logs and the program's own table go to stderr.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "paperbench"
WORKLOADS = ("fig7-lu", "fig8-cg2", "policy-zoo")

# Modules reported by name; every other src/ directory, the benchmark's own
# code and library code with no known caller count as "other".
MODULES = ("sim", "mem", "disk", "core", "proc", "net", "gang", "workloads",
           "harness")

# BENCHMARK.json declares every metric with its unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(name, extra_args):
    """Configure (once) and build one tree; returns the binary's path."""
    tree = BUILD_DIR / name
    if not any((tree / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator,
                        *extra_args],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(tree), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return tree / "paperbench"


def run_program(binary, args, cwd):
    """Run paperbench; returns its JSON result (the last stdout line)."""
    proc = subprocess.run([str(binary), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# gprof: host seconds per src/ module


def symbol_modules(binary):
    """Mangled symbol -> module, by the source directory of its definition."""
    src = str((ROOT / "src").resolve()) + "/"
    out = subprocess.run(["nm", "-l", "--defined-only", str(binary)],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    modules = {}
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) < 3 or parts[1] not in "TtWw":
            continue
        name, _, where = parts[2].partition("\t")
        path = os.path.realpath(where.rsplit(":", 1)[0]) if where else ""
        if path.startswith(src):
            module = path[len(src):].split("/", 1)[0]
            modules[name] = module if module in MODULES else "other"
        elif path.startswith(str(BENCH_DIR) + "/"):
            modules[name] = "other"
        else:
            modules[name] = None  # library code: charged to its callers
    return modules


def parse_call_graph(text):
    """gprof -q output -> {name: {self, children, calls, parents}}.

    parents maps each caller to (calls, self share, children share)."""
    graph = {}
    blocks = text.split("-----------------------------------------------")
    name_re = re.compile(r"^(\S+?)(?: <cycle \d+>)?(?: \(\S+\))? \[\d+\]$")
    for block in blocks:
        lines = [l for l in block.splitlines() if l.strip()]
        primary = next((i for i, l in enumerate(lines)
                        if l.startswith("[")), None)
        if primary is None:
            continue
        fields = lines[primary].split()
        # [idx] %time self children [called] name... [idx]
        nums = []
        rest = fields[2:]
        while rest and re.fullmatch(r"[\d.]+(\+\d+)?", rest[0]):
            nums.append(rest.pop(0))
        m = name_re.match(" ".join(rest))
        if m is None or len(nums) < 2:
            continue
        entry = {"self": float(nums[0]), "children": float(nums[1]),
                 "calls": int(nums[2].split("+")[0]) if len(nums) > 2 else 0,
                 "parents": {}}
        for line in lines[:primary]:
            cols = line.split()
            if cols[-1] == "<spontaneous>" or len(cols) < 4:
                continue
            pm = name_re.match(" ".join(cols[3:]))
            if pm is None:
                continue
            called = int(cols[2].split("/")[0].split("+")[0])
            entry["parents"][pm.group(1)] = (called, float(cols[0]),
                                             float(cols[1]))
        graph[m.group(1)] = entry
    return graph


def parse_flat(text):
    """gprof -p output -> {name: self seconds}."""
    flat = {}
    for line in text.splitlines():
        cols = line.split()
        if len(cols) >= 4 and re.fullmatch(r"[\d.]+", cols[0]) and \
                re.fullmatch(r"[\d.]+", cols[2]):
            flat[cols[-1]] = flat.get(cols[-1], 0.0) + float(cols[2])
    return flat


def host_metrics(binary, gmon, rounds):
    """Per-round host seconds by module, plus the inclusive hot paths."""
    gprof = ["gprof", "-b", "--no-demangle", str(binary), str(gmon)]
    flat = parse_flat(subprocess.run(gprof + ["-p"], stdout=subprocess.PIPE,
                                     text=True, check=True).stdout)
    graph = parse_call_graph(subprocess.run(
        gprof + ["-q"], stdout=subprocess.PIPE, text=True, check=True).stdout)
    modules = symbol_modules(binary)

    charged = defaultdict(float)
    pending = defaultdict(float)  # library seconds not yet charged
    for name, seconds in flat.items():
        module = modules.get(name)
        if module is None:
            pending[name] += seconds
        else:
            charged[module] += seconds
    # Inlined code is already inside its caller's samples; library code is
    # charged to its callers in proportion to their calls, through chains
    # of library callers, until it reaches a src/ function.
    for _ in range(64):
        moving = {n: s for n, s in pending.items() if s > 0.0}
        if not moving:
            break
        pending.clear()
        for name, seconds in moving.items():
            parents = {p: v[0] for p, v in graph.get(name, {})
                       .get("parents", {}).items() if p != name}
            total = sum(parents.values())
            if total == 0:
                charged["other"] += seconds
                continue
            for parent, calls in parents.items():
                share = seconds * calls / total
                module = modules.get(parent)
                if module is None:
                    pending[parent] += share
                else:
                    charged[module] += share
    charged["other"] += sum(pending.values())

    def inclusive(pattern):
        """Seconds inside matching functions, entered from elsewhere."""
        total = 0.0
        for name, entry in graph.items():
            if not pattern.search(name):
                continue
            if not entry["parents"]:
                total += entry["self"] + entry["children"]
            total += sum(own + below for parent, (_, own, below)
                         in entry["parents"].items()
                         if not pattern.search(parent))
        return total

    metrics = {f"host.{m}_s": charged[m] / rounds for m in MODULES}
    metrics["host.other_s"] = charged["other"] / rounds
    # Itanium mangling: <len><identifier>, so these match exactly the
    # ReclaimPolicy::select_victims overrides and Vmm::touch_run.
    metrics["host.mem.reclaim_s"] = inclusive(
        re.compile(r"^_ZN5apsim\d+\w+?14select_victimsE")) / rounds
    metrics["host.mem.touch_s"] = inclusive(
        re.compile(r"^_ZN5apsim3Vmm9touch_runE")) / rounds
    pops = graph.get("_ZN5apsim10EventQueue3popEv", {}).get("calls", 0)
    metrics["sim.events"] = pops / rounds
    return metrics


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    opt = build("opt", [])
    prof = build("gprof", ["-DPAPERBENCH_GPROF=ON"])
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    timed = run_program(opt, common + ["--mode",
                                       "traced" if args.trace else "timed"],
                        ROOT)
    errors = list(timed["errors"])
    attempted = timed["attempted"]
    failed = timed["failed"]

    if args.trace:
        run_dir = BUILD_DIR / "profile-run"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        profiled = run_program(prof, common + ["--mode", "timed"], run_dir)
        errors += profiled["errors"]
        attempted += profiled["attempted"]
        failed += profiled["failed"]
        if profiled["fingerprint"] != timed["fingerprint"]:
            errors.append("the profiled run did not reproduce the timed run")
        values = host_metrics(prof, run_dir / "gmon.out", profiled["rounds"])
        values["host.profile_overhead_s"] = (profiled["wall_s"] -
                                             timed["wall_s"])
        values.update(timed["layers"])
        declared = [m["name"] for m in SPEC["per_layer"]]
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        values = {name: timed[name] for name in END_TO_END}
        declared = END_TO_END
    if sorted(values) != sorted(declared):
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(declared))}")

    for error in errors:
        log(f"CHECK FAILED: {error}")
    metrics = {name: {"value": values[name], "unit": UNITS[name]}
               for name in sorted(values)}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.9g} {metric['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, OSError, ValueError,
            KeyError) as exc:
        log(f"paperbench: {exc}")
        sys.exit(1)
