// Paper-row benchmark. Runs one workload (the Figure 7 LU row, the Figure 8
// CG row on two nodes, or a fixed LU.S job set under every scheduler
// policy) through the public harness on one thread, checks its outputs and
// prints one JSON object with the timings and counters. `run.py` builds
// this program twice (optimised and gprof-instrumented) and drives it.
//
// Usage: paperbench --workload NAME --seed N --seconds S
//                   [--mode timed|traced]
//   timed   run whole rounds of the workload until S seconds have passed,
//           tracing off (the end-to-end run, and the profiled run)
//   traced  a timed run, then one more round with the in-memory tracer on
//           (trace_json = "-"), for the simulated per-layer counts

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gang/policy_registry.hpp"
#include "harness/figures.hpp"
#include "harness/runner.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace apsim;

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Set by the first static constructor to run, before the simulator's own
/// static registries are built: the start of the set-up that setup_s times.
/// Exec comes before it and is left out: it is kernel time whose median
/// moved by over half between sets of runs minutes apart on a shared host.
std::int64_t g_process_start_ns = 0;

__attribute__((constructor(101))) void mark_process_start() {
  g_process_start_ns = monotonic_ns();
}

/// Peak resident memory of this process image in MB (VmHWM), or 0 if it
/// cannot be read. getrusage's ru_maxrss would also count the parent's
/// memory at fork time.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  double kb = 0.0;
  while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  if (f != nullptr) std::fclose(f);
  return kb / 1024.0;
}

/// One simulation of a workload round. `evaluated` marks the gang runs whose
/// jobs make up sim_response_s and the per-layer counts; `role` names the
/// run inside its row (orig / adaptive / batch / a scheduler policy).
struct Sim {
  ExperimentConfig config;
  std::string role;
  bool evaluated = false;
};

struct Workload {
  std::string name;
  bool figure_row = false;
  std::vector<Sim> sims;
};

/// iterations_scale that runs \p scale times the spec's time steps plus 0-4
/// more, drawn from the seed (splitmix64). NPB LU's reference string has no
/// random chunks, so ExperimentConfig::seed alone would leave an LU run
/// unchanged; the extra steps make each seed a different input without
/// changing the job set.
double stretched_scale(NpbApp app, NpbClass cls, double scale,
                       std::uint64_t seed) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const double steps = static_cast<double>(npb_spec(app, cls).iterations);
  return (scale * steps + static_cast<double>(z % 5)) / steps;
}

/// A Figure 7/8 row: orig, so/ao/ai/bg and the batch baseline.
Workload figure_row(const std::string& name, NpbApp app, int nodes,
                    double usable_mb, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.figure_row = true;
  const PolicySet policies[] = {PolicySet::original(), PolicySet::all(),
                                PolicySet::original()};
  const char* roles[] = {"orig", "adaptive", "batch"};
  for (int i = 0; i < 3; ++i) {
    Sim sim;
    sim.config = figure_base(app, nodes, usable_mb, policies[i]);
    sim.config.seed = seed;
    // As run_fig8 does: parallel jobs span several quanta.
    sim.config.iterations_scale =
        stretched_scale(app, sim.config.cls, nodes, seed);
    sim.config.batch_mode = i == 2;
    sim.role = roles[i];
    sim.evaluated = i == 1;
    w.sims.push_back(std::move(sim));
  }
  return w;
}

/// Four 2-rank LU class S jobs sharing two memory-starved nodes with 0.1 s
/// quanta, under every registered scheduler policy (dfrs auto-migrating),
/// with plain demand paging: over a thousand switches per round, no
/// adaptive-paging mechanism, and a working set small enough to stay in the
/// host's caches.
Workload policy_zoo(std::uint64_t seed) {
  ExperimentConfig c;
  c.app = NpbApp::kLU;
  c.cls = NpbClass::kS;
  c.nodes = 2;
  c.instances = 4;
  c.node_memory_mb = 64.0;
  c.usable_memory_mb = 6.0;
  c.quantum = kSecond / 10;
  c.iterations_scale = stretched_scale(c.app, c.cls, 1.0, seed);
  c.seed = seed;

  Workload w;
  w.name = "policy-zoo";
  for (const std::string& policy : sched_policy_names()) {
    Sim sim;
    sim.config = c;
    sim.config.sched_policy = policy;
    sim.config.auto_migrate = policy == "dfrs";
    sim.role = policy;
    sim.evaluated = true;
    w.sims.push_back(std::move(sim));
  }
  return w;
}

bool make_workload(const std::string& name, std::uint64_t seed, Workload& w) {
  if (name == "fig7-lu") {
    w = figure_row(name, NpbApp::kLU, 1, fig7_usable_mb(NpbApp::kLU), seed);
  } else if (name == "fig8-cg2") {
    w = figure_row(name, NpbApp::kCG, 2, fig8_usable_mb(NpbApp::kCG, 2), seed);
  } else if (name == "policy-zoo") {
    w = policy_zoo(seed);
  } else {
    return false;
  }
  for (const Sim& sim : w.sims) sim.config.validate();
  return true;
}

/// Every makespan, counter and per-job figure of a run, as text. Two runs
/// that observe the same simulation print the same text.
std::string fingerprint(const RunOutcome& o) {
  std::ostringstream os;
  os << o.label << '|' << o.policy << '|' << o.makespan << '|'
     << o.pages_swapped_in << ',' << o.pages_swapped_out << ','
     << o.major_faults << ',' << o.false_evictions << ',' << o.pages_recorded
     << ',' << o.pages_replayed << ',' << o.bg_pages_written << ','
     << o.switches << ',' << o.jobs_failed << ',' << o.nodes_failed << ','
     << o.io_errors << ',' << o.io_retries << ',' << o.pages_unrecoverable
     << ',' << o.signal_retransmits << ',' << o.disk_blocks_read << ','
     << o.disk_blocks_written << ',' << o.jobs_migrated << ','
     << o.migration_bytes << ',' << o.mean_slowdown << ',' << o.p99_slowdown;
  for (const JobOutcome& j : o.jobs) {
    os << '|' << j.name << ',' << j.arrival << ',' << j.completion << ','
       << j.failed << ',' << j.major_faults << ',' << j.minor_faults << ','
       << j.pages_swapped_in << ',' << j.pages_swapped_out << ','
       << j.false_evictions << ',' << j.cpu_time << ',' << j.fault_wait << ','
       << j.comm_wait << ',' << j.slowdown;
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The output checks. Appends one message per violated property.
void check_round(const Workload& w, const std::vector<RunOutcome>& runs,
                 std::set<std::string>& errors) {
  auto fail = [&](const Sim& sim, const std::string& what) {
    errors.insert(w.name + "/" + sim.role + ": " + what);
  };
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Sim& sim = w.sims[i];
    const RunOutcome& o = runs[i];
    if (o.makespan < 0 || o.makespan > sim.config.horizon) {
      fail(sim, "did not finish inside its horizon");
    }
    if (o.jobs_failed != 0) fail(sim, "a job failed");
    std::uint64_t swapped_in = 0;
    std::uint64_t swapped_out = 0;
    for (const JobOutcome& job : o.jobs) {
      swapped_in += job.pages_swapped_in;
      swapped_out += job.pages_swapped_out;
      if (job.failed || job.completion < 0) {
        fail(sim, "job " + job.name + " did not complete");
        continue;
      }
      // Every job of a fixed set spans the whole cluster.
      if ((job.completion - job.arrival) * sim.config.nodes < job.cpu_time) {
        fail(sim, "job " + job.name +
                      " responded faster than its CPU time per rank");
      }
    }
    // Disk blocks and per-process swap counters come from different layers
    // and must agree, but for one known gap: an eviction write that
    // completes after its process exited reaches the disk and no process's
    // counters. Without adaptive paging, reclaim keeps at most
    // freepages_high pages in flight on a node, so each exiting process can
    // leave at most that many writes uncharged. The figure rows must match
    // exactly, and so must reads: a process cannot exit while it waits for
    // a page-in.
    const std::uint64_t write_gap =
        w.figure_row ? 0
                     : static_cast<std::uint64_t>(
                           sim.config.instances * sim.config.nodes *
                           sim.config.make_node_params().vmm.freepages_high);
    if (o.disk_blocks_read != swapped_in) {
      fail(sim, "disk blocks read " + std::to_string(o.disk_blocks_read) +
                    " vs pages swapped in " + std::to_string(swapped_in));
    }
    if (o.disk_blocks_written < swapped_out ||
        o.disk_blocks_written - swapped_out > write_gap) {
      fail(sim, "disk blocks written " + std::to_string(o.disk_blocks_written) +
                    " vs pages swapped out " + std::to_string(swapped_out));
    }
    if (o.pages_replayed > o.pages_recorded) {
      fail(sim, "pages replayed > pages recorded");
    }
  }
  if (w.figure_row) {
    const RunOutcome& orig = runs[0];
    const RunOutcome& adaptive = runs[1];
    const RunOutcome& batch = runs[2];
    if (!(switching_overhead(adaptive.makespan, batch.makespan) <
          switching_overhead(orig.makespan, batch.makespan))) {
      fail(w.sims[1], "switching overhead not below orig's");
    }
  }
}

/// Mean response (completion - arrival) over the jobs of the evaluated runs.
double sim_response_s(const Workload& w, const std::vector<RunOutcome>& runs) {
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!w.sims[i].evaluated) continue;
    for (const JobOutcome& job : runs[i].jobs) {
      total += to_seconds(job.completion - job.arrival);
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

/// Simulations of a round that hit the horizon or lost a job.
std::size_t unfinished(const std::vector<RunOutcome>& runs) {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(), [](const RunOutcome& o) {
        return o.makespan < 0 || o.jobs_failed != 0;
      }));
}

const SwitchPhaseStat* phase(const RunOutcome& o, const char* cat,
                             const char* name) {
  for (const SwitchPhaseStat& s : o.switch_phases) {
    if (s.category == cat && s.name == name) return &s;
  }
  return nullptr;
}

/// The simulated per-layer counts of a traced round, over its evaluated runs.
std::map<std::string, double> layer_counts(const Workload& w,
                                           const std::vector<RunOutcome>& runs,
                                           std::uint64_t& dropped) {
  std::map<std::string, double> m;
  double depth_sum = 0.0;
  double depth_max = 0.0;
  double depth_n = 0.0;
  // Per job, the most CPU any schedule of the round gave it: the batch
  // twin on a figure row, the best policy on the policy zoo.
  std::map<std::string, SimDuration> reference_cpu;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (w.figure_row && w.sims[i].role != "batch") continue;
    for (const JobOutcome& job : runs[i].jobs) {
      SimDuration& ref = reference_cpu[job.name];
      ref = std::max(ref, job.cpu_time);
    }
  }
  for (const char* key :
       {"mem.major_faults", "mem.minor_faults", "mem.pages_swapped_in",
        "mem.pages_swapped_out", "mem.false_evictions", "core.pages_recorded",
        "core.pages_replayed", "core.bg_pages_written", "disk.requests",
        "disk.blocks_read", "disk.blocks_written", "disk.busy_s",
        "gang.switches", "gang.page_out_s", "gang.page_in_s",
        "gang.jobs_migrated", "net.comm_wait_s", "net.migration_bytes",
        "proc.cpu_s", "proc.fault_wait_s", "proc.lost_cpu_s"}) {
    m[key] = 0.0;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!w.sims[i].evaluated) continue;
    const RunOutcome& o = runs[i];
    m["mem.major_faults"] += static_cast<double>(o.major_faults);
    m["mem.pages_swapped_in"] += static_cast<double>(o.pages_swapped_in);
    m["mem.pages_swapped_out"] += static_cast<double>(o.pages_swapped_out);
    m["mem.false_evictions"] += static_cast<double>(o.false_evictions);
    m["core.pages_recorded"] += static_cast<double>(o.pages_recorded);
    m["core.pages_replayed"] += static_cast<double>(o.pages_replayed);
    m["core.bg_pages_written"] += static_cast<double>(o.bg_pages_written);
    m["disk.blocks_read"] += static_cast<double>(o.disk_blocks_read);
    m["disk.blocks_written"] += static_cast<double>(o.disk_blocks_written);
    m["gang.switches"] += o.switches;
    m["gang.jobs_migrated"] += o.jobs_migrated;
    m["net.migration_bytes"] += static_cast<double>(o.migration_bytes);
    for (const char* name : {"service_read", "service_write"}) {
      if (const SwitchPhaseStat* s = phase(o, "disk", name)) {
        m["disk.requests"] += static_cast<double>(s->count);
        m["disk.busy_s"] += s->total_s;
      }
    }
    if (const SwitchPhaseStat* s = phase(o, "switch", "page_out")) {
      m["gang.page_out_s"] += s->total_s;
    }
    if (const SwitchPhaseStat* s = phase(o, "switch", "page_in")) {
      m["gang.page_in_s"] += s->total_s;
    }
    for (const JobOutcome& job : o.jobs) {
      m["mem.minor_faults"] += static_cast<double>(job.minor_faults);
      m["net.comm_wait_s"] += to_seconds(job.comm_wait);
      m["proc.cpu_s"] += to_seconds(job.cpu_time);
      m["proc.fault_wait_s"] += to_seconds(job.fault_wait);
      m["proc.lost_cpu_s"] += to_seconds(reference_cpu[job.name] - job.cpu_time);
    }
    if (o.trace) {
      dropped += o.trace->dropped();
      for (const TraceEvent& ev : o.trace->events()) {
        if (ev.kind != TraceEventKind::kCounter ||
            o.trace->string(ev.name) != "queue_depth" || ev.num_args == 0) {
          continue;
        }
        depth_sum += ev.args[0].second;
        depth_max = std::max(depth_max, ev.args[0].second);
        depth_n += 1.0;
      }
    }
  }
  m["disk.queue_depth_mean"] = depth_n > 0 ? depth_sum / depth_n : 0.0;
  m["disk.queue_depth_max"] = depth_max;
  return m;
}

struct Round {
  std::vector<RunOutcome> runs;
  std::vector<double> sim_wall_s;  ///< host seconds of each simulation
  std::uint64_t hash = 0;
};

Round run_round(const Workload& w, bool traced) {
  Round r;
  r.hash = 1469598103934665603ULL;
  for (const Sim& sim : w.sims) {
    ExperimentConfig config = sim.config;
    if (traced) config.trace_json = "-";
    const auto sim_start = std::chrono::steady_clock::now();
    r.runs.push_back(run_config(config));
    r.sim_wall_s.push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - sim_start)
                               .count());
  }
  for (const RunOutcome& o : r.runs) r.hash = fnv1a(fingerprint(o), r.hash);
  return r;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: paperbench --workload fig7-lu|fig8-cg2|policy-zoo "
               "--seed N --seconds S [--mode timed|traced]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string mode = "timed";
  std::uint64_t seed = 0;
  double seconds = -1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0') return usage();
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seconds < 0 || (mode != "timed" && mode != "traced")) {
    return usage();
  }
  Workload w;
  if (!make_workload(workload_name, seed, w)) return usage();

  // Timed rounds: whole rounds until `seconds` have passed, at least one.
  // Only the first round's outcomes are kept, so memory does not grow with
  // the number of rounds; later rounds are checked and compared as they end.
  std::set<std::string> errors;
  const std::int64_t first_start = monotonic_ns();
  const Round first = run_round(w, /*traced=*/false);
  check_round(w, first.runs, errors);
  std::size_t rounds = 1;
  // Interference from other tenants of the host only ever slows a
  // simulation down, so each simulation's fastest run over the rounds is
  // the steadiest estimate of its cost; wall_s is the sum of those.
  std::vector<double> fastest = first.sim_wall_s;
  std::size_t failed = unfinished(first.runs);
  while (static_cast<double>(monotonic_ns() - first_start) * 1e-9 < seconds) {
    const Round r = run_round(w, /*traced=*/false);
    check_round(w, r.runs, errors);
    failed += unfinished(r.runs);
    ++rounds;
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], r.sim_wall_s[i]);
    }
    if (r.hash != first.hash) {
      errors.insert(w.name + ": a repeated round did not reproduce the first");
    }
  }
  std::size_t attempted = rounds * w.sims.size();
  const double peak_rss = peak_rss_mb();
  if (peak_rss <= 0.0) errors.insert("no VmHWM in /proc/self/status");

  // A readable table of the first round on stderr; stdout carries the JSON.
  std::fprintf(stderr, "%-10s %12s %12s %10s %8s\n", "run", "makespan_s",
               "response_s", "host_s", "switches");
  for (std::size_t i = 0; i < w.sims.size(); ++i) {
    double response = 0.0;
    for (const JobOutcome& job : first.runs[i].jobs) {
      response += to_seconds(job.completion - job.arrival);
    }
    response /= static_cast<double>(std::max<std::size_t>(1, first.runs[i].jobs.size()));
    std::fprintf(stderr, "%-10s %12.1f %12.1f %10.3f %8d\n",
                 w.sims[i].role.c_str(), first.runs[i].makespan_s(), response,
                 first.sim_wall_s[i], first.runs[i].switches);
  }

  std::printf("{\"workload\": %s, \"seed\": %" PRIu64 ", \"rounds\": %zu",
              json_string(w.name).c_str(), seed, rounds);
  std::printf(", \"wall_s\": %.9g, \"setup_s\": %.9g, \"peak_rss_mb\": %.9g",
              std::accumulate(fastest.begin(), fastest.end(), 0.0),
              static_cast<double>(first_start - g_process_start_ns) * 1e-9,
              peak_rss);
  std::printf(", \"sim_response_s\": %.17g, \"fingerprint\": \"%016" PRIx64
              "\"",
              sim_response_s(w, first.runs), first.hash);

  if (mode == "traced") {
    const Round traced = run_round(w, /*traced=*/true);
    attempted += w.sims.size();
    failed += unfinished(traced.runs);
    check_round(w, traced.runs, errors);
    if (traced.hash != first.hash) {
      errors.insert(w.name + ": the traced round did not reproduce the timed one");
    }
    std::uint64_t dropped = 0;
    const auto layers = layer_counts(w, traced.runs, dropped);
    // disk.queue_depth_* read the tracer's events; a full buffer would leave
    // them covering only a prefix of the round.
    if (dropped != 0) {
      errors.insert(w.name + ": the tracer dropped " +
                    std::to_string(dropped) + " events");
    }
    std::printf(", \"layers\": {");
    const char* sep = "";
    for (const auto& [key, value] : layers) {
      std::printf("%s%s: %.17g", sep, json_string(key).c_str(), value);
      sep = ", ";
    }
    std::printf("}");
  }

  // A simulation that did not finish counts as failed and, like every other
  // broken check, also makes the result incorrect.
  std::printf(", \"attempted\": %zu, \"failed\": %zu, \"errors\": [",
              attempted, failed);
  const char* sep = "";
  for (const std::string& e : errors) {
    std::printf("%s%s", sep, json_string(e).c_str());
    sep = ", ";
  }
  std::printf("]}\n");
  return 0;
}
