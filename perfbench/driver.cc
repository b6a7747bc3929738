// odbgc_perfbench — the benchmark driver behind perfbench/run.py.
//
//   odbgc_perfbench --workload=oo7_sweep|oo7_ops|fleet_1000 --seed=N
//                   --seconds=S --trace=0|1 --out-dir=DIR [--size=full|tiny]
//
// Each workload is a batch job of fixed size. After its set-up (timed
// several times, median reported as setup_s) it repeats the batch until
// --seconds of wall time have passed; the first repetition is a
// discarded warm-up and events_per_s is the median of the rest. Only the
// public API of src/sim, src/oo7, src/workloads and src/obs is driven;
// every time is wall-clock time measured here, around calls into the
// library. With --trace=1 the driver also records spans around those
// calls (spans.h), alternates traced with untraced repetitions to
// measure the tracing overhead, prints the per-layer metrics and writes
// the spans to DIR/trace.json.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}) and checks (name -> bool).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/saio.h"
#include "obs/perfetto_export.h"
#include "oo7/params.h"
#include "perfbench/spans.h"
#include "sim/checkpoint.h"
#include "sim/errors.h"
#include "sim/multi_tenant.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "workloads/streaming.h"

namespace perfbench {
namespace {

using namespace odbgc;

// ---------------------------------------------------------------------
// Command line.

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: odbgc_perfbench --workload=oo7_sweep|"
               "oo7_ops|fleet_1000 --seed=N --seconds=S --trace=0|1 "
               "--out-dir=DIR [--size=full|tiny]\n",
               why.c_str());
  std::exit(2);
}

bool ParseUint(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0 && *out <= max;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("malformed argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    uint64_t n = 0;
    if (key == "workload") {
      o.workload = value;
    } else if (key == "seed") {
      if (!ParseUint(value, UINT64_MAX, &n)) Usage("bad --seed");
      o.seed = n;
      have_seed = true;
    } else if (key == "seconds") {
      if (!ParseUint(value, 600, &n) || n == 0) Usage("bad --seconds");
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      o.trace = value == "1";
      have_trace = true;
    } else if (key == "size") {
      if (value != "full" && value != "tiny") Usage("bad --size");
      o.tiny = value == "tiny";
    } else if (key == "out-dir") {
      o.out_dir = value;
    } else {
      Usage("unknown flag --" + key);
    }
  }
  if (o.workload != "oo7_sweep" && o.workload != "oo7_ops" &&
      o.workload != "fleet_1000") {
    Usage("unknown --workload '" + o.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace || o.out_dir.empty()) {
    Usage("--seed, --seconds, --trace and --out-dir are required");
  }
  return o;
}

// ---------------------------------------------------------------------
// Small measurement helpers.

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Peak resident memory per repetition: Start() resets the kernel's
// high-water mark (VmHWM) to the current resident set, Stop() reads it.
// The median over repetitions is steadier than one process-lifetime peak,
// which moves with allocator fragmentation under thread timing.
class RepPeakRss {
 public:
  void Start() { std::ofstream("/proc/self/clear_refs") << "5"; }
  void Stop() { samples_.push_back(PeakRssMb()); }
  double MedianMb() const { return Median(samples_); }

 private:
  std::vector<double> samples_;
};

// The `stream`-th input seed of a workload (SplitMix64 of seed and
// stream), so that every --seed value, 0 and 2^64-1 included, gives
// well-spread, distinct, non-zero seeds to the generators.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Digest of everything a run reports, collection log included.
uint64_t ResultDigest(const SimResult& r) {
  return Fnv1a(SimResultToJson(r, /*include_collection_log=*/true));
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

// ---------------------------------------------------------------------
// Output: metrics, checks, operation counts.

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  void Check(const std::string& name, bool ok) {
    checks_[name] = ok;
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
  }
  void Op(bool ok) { Ops(1, ok ? 0 : 1); }
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void Print() const {
    uint64_t attempted = attempted_;
    uint64_t failed = failed_;
    bool correct = failed_ == 0;
    for (const auto& [name, ok] : checks_) {
      ++attempted;
      if (!ok) {
        ++failed;
        correct = false;
      }
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("correct");
    w.Value(correct);
    w.Key("attempted");
    w.Value(attempted);
    w.Key("failed");
    w.Value(failed);
    w.Key("metrics");
    w.BeginObject();
    for (const auto& [name, m] : metrics_) {
      w.Key(name);
      w.BeginObject();
      w.Key("value");
      w.Value(m.value);
      w.Key("unit");
      w.Value(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.Key("checks");
    w.BeginObject();
    for (const auto& [name, ok] : checks_) {
      w.Key(name);
      w.Value(ok);
    }
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.TakeString().c_str());
    std::fflush(stdout);
  }

 private:
  struct MetricValue {
    double value = 0.0;
    const char* unit = "";
  };
  std::map<std::string, MetricValue> metrics_;
  std::map<std::string, bool> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Per-layer metric catalogue. A traced run prints every name below on
// every workload, with 0 where the workload does not exercise the layer.

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"oo7.generate_ms", "ms"},
    {"oo7.trace_events", "count"},
    {"sweep.run_ms_p50", "ms"},
    {"sweep.run_ms_p90", "ms"},
    {"sweep.trace_wait_ms", "ms"},
    {"sweep.worker_busy_frac", "frac"},
    {"sweep.cache_hits", "count"},
    {"sweep.cache_misses", "count"},
    {"apply.create_ns", "ns"},
    {"apply.write_ref_ns", "ns"},
    {"apply.access_ns", "ns"},
    {"apply.collect_ms", "ms"},
    {"apply.collect_events", "count"},
    {"apply.collect_us_p50", "us"},
    {"apply.collect_us_p99", "us"},
    {"apply.heal_ms", "ms"},
    {"apply.governor_ms", "ms"},
    {"apply.other_ms", "ms"},
    {"sim.finish_ms", "ms"},
    {"storage.buffer_hit_rate", "frac"},
    {"storage.app_io_pages", "count"},
    {"storage.gc_io_pages", "count"},
    {"storage.final_partitions", "count"},
    {"gc.collections", "count"},
    {"gc.reclaimed_bytes_per_gc_page", "B/page"},
    {"core.saga_dt_clamps", "count"},
    {"checkpoint.count", "count"},
    {"checkpoint.write_ms_p50", "ms"},
    {"checkpoint.write_ms_max", "ms"},
    {"checkpoint.bytes", "B"},
    {"checkpoint.resume_ms", "ms"},
    {"obs.export_ms", "ms"},
    {"obs.export_bytes", "B"},
    {"obs.ledger_records", "count"},
    {"obs.timeseries_frames", "count"},
    {"obs.enabled_overhead_frac", "frac"},
    {"governor.boost_collections", "count"},
    {"governor.emergency_collections", "count"},
    {"governor.safe_mode_entries", "count"},
    {"governor.peak_utilization_pct", "%"},
    {"heal.pages_scrubbed", "count"},
    {"heal.partitions_repaired", "count"},
    {"mux.drain_events_per_s", "1/s"},
    {"fleet.run_ms", "ms"},
    {"fleet.serial_bound_frac", "frac"},
    {"fleet.speedup_vs_1t", "x"},
    {"fleet.shard_events_imbalance", "x"},
    {"fleet.epochs", "count"},
    {"fleet.xshard_writes", "count"},
    {"fleet.budget_grants", "count"},
    {"fleet.stall_gc_copy_p99_pages", "pages"},
    {"fleet.engine_bytes", "B"},
    {"fleet.epoch4096_run_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"},
};

// Layers whose self time a traced run reports (self_frac.<layer>: share
// of the traced wall time). Names are the span/aggregate names used
// below; "bench" (the root) is the unattributed remainder.
constexpr const char* kLayers[] = {
    "oo7",          "sim_parallel", "sim_lifecycle", "trace_replay",
    "storage",      "gc",           "scrubber",      "governor",
    "sim_finish",   "checkpoint",   "obs_export",    "client_mux",
    "multi_tenant", "fleet_lifecycle", "bench_check",
};

// One line per measured series on stderr, for reading run-to-run noise.
void LogSeries(const char* what, const std::vector<double>& v) {
  if (v.empty()) return;
  std::fprintf(stderr, "%s: n=%zu min=%.6g median=%.6g max=%.6g\n", what,
               v.size(), *std::min_element(v.begin(), v.end()), Median(v),
               *std::max_element(v.begin(), v.end()));
}

// Measured-repetition loop shared by every workload: runs `rep` until
// `seconds` have passed with at least `min_reps` measured repetitions
// after the discarded warm-up (index 0). A hard cap keeps a slow host
// inside the driver's time limit.
template <typename Rep>
void RepeatFor(double seconds, int min_reps, Rep rep) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0;; ++i) {
    rep(i);
    const double elapsed_s = MsSince(t0) / 1000.0;
    const int measured = i;  // repetitions after the warm-up
    if (measured >= min_reps && elapsed_s >= seconds) break;
    if (measured >= 1 && elapsed_s >= 2.5 * seconds) break;
  }
}

// ---------------------------------------------------------------------
// Apply-level instrumentation: one clock read per Simulation::Apply
// call, bucketed by event kind and by what the call ran, detected from
// the simulation's public live counters.

struct ApplyStats {
  uint64_t create_ns = 0, create_calls = 0;
  uint64_t write_ns = 0, write_calls = 0;
  uint64_t access_ns = 0, access_calls = 0;
  uint64_t other_ns = 0;
  uint64_t collect_ns = 0;
  std::vector<double> collect_us;
  uint64_t heal_ns = 0;
  uint64_t governor_ns = 0;
  uint64_t finish_ns = 0;
  uint64_t replays = 0;  // Finish() calls folded in

  void Emit(Report& out) const {
    const double per = replays > 0 ? 1.0 / replays : 0.0;
    auto mean_ns = [](uint64_t ns, uint64_t calls) {
      return calls > 0 ? static_cast<double>(ns) / calls : 0.0;
    };
    out.Metric("apply.create_ns", mean_ns(create_ns, create_calls), "ns");
    out.Metric("apply.write_ref_ns", mean_ns(write_ns, write_calls), "ns");
    out.Metric("apply.access_ns", mean_ns(access_ns, access_calls), "ns");
    out.Metric("apply.collect_ms", collect_ns * per / 1e6, "ms");
    out.Metric("apply.collect_events",
               static_cast<double>(collect_us.size()) * per, "count");
    out.Metric("apply.collect_us_p50", Percentile(collect_us, 50), "us");
    out.Metric("apply.collect_us_p99", Percentile(collect_us, 99), "us");
    out.Metric("apply.heal_ms", heal_ns * per / 1e6, "ms");
    out.Metric("apply.governor_ms", governor_ns * per / 1e6, "ms");
    out.Metric("apply.other_ms", other_ns * per / 1e6, "ms");
    out.Metric("sim.finish_ms", finish_ns * per / 1e6, "ms");
  }
};

// Periodic checkpointing during a replay (WriteCheckpoint every
// `every` applied events).
struct CheckpointPlan {
  CheckpointPlan(std::string p, uint64_t n) : path(std::move(p)), every(n) {}

  std::string path;
  uint64_t every;
  std::vector<double> write_ms;
  uint64_t writes = 0;
  uint64_t write_failures = 0;

  void Write(const Simulation& sim, SpanLog& log) {
    ScopedSpan span(log, "checkpoint");
    const Clock::time_point t0 = Clock::now();
    const CheckpointError err = WriteCheckpoint(sim, path);
    write_ms.push_back(MsSince(t0));
    ++writes;
    if (err != CheckpointError::kNone) ++write_failures;
  }
};

// Applies the trace from sim.events_applied() to its end. With `stats`
// non-null every call is timed and bucketed (and booked as aggregates on
// the span log); otherwise the loop is the plain one a caller would
// write. Returns Finish()'s result.
SimResult Replay(Simulation& sim, const Trace& trace, CheckpointPlan* ckpt,
                 ApplyStats* stats, SpanLog& log) {
  const std::vector<TraceEvent>& events = trace.events();
  if (stats == nullptr) {
    for (size_t i = sim.events_applied(); i < events.size(); ++i) {
      sim.Apply(events[i]);
      if (ckpt != nullptr && sim.events_applied() % ckpt->every == 0) {
        ckpt->Write(sim, log);
      }
    }
    ScopedSpan span(log, "sim_finish");
    return sim.Finish();
  }

  const SimResult& live = sim.result_so_far();
  uint64_t storage_ns = 0;
  const uint64_t collect_ns0 = stats->collect_ns;
  const uint64_t heal_ns0 = stats->heal_ns;
  const uint64_t governor_ns0 = stats->governor_ns;
  {
    ScopedSpan span(log, "trace_replay");
    Clock::time_point prev = Clock::now();
    for (size_t i = sim.events_applied(); i < events.size(); ++i) {
      const TraceEvent& e = events[i];
      const uint64_t coll0 = live.collections + live.idle_collections;
      const uint64_t gov0 = live.governor_boost_collections +
                            live.governor_emergency_collections +
                            live.safe_mode_entries + live.safe_mode_exits;
      const uint64_t heal0 = live.pages_scrubbed +
                             live.partitions_quarantined +
                             live.partitions_repaired;
      sim.Apply(e);
      const Clock::time_point now = Clock::now();
      const uint64_t ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev)
              .count());
      prev = now;
      if (live.governor_boost_collections +
              live.governor_emergency_collections + live.safe_mode_entries +
              live.safe_mode_exits !=
          gov0) {
        stats->governor_ns += ns;
      } else if (live.collections + live.idle_collections != coll0) {
        stats->collect_ns += ns;
        stats->collect_us.push_back(static_cast<double>(ns) / 1e3);
      } else if (live.pages_scrubbed + live.partitions_quarantined +
                     live.partitions_repaired !=
                 heal0) {
        stats->heal_ns += ns;
      } else {
        storage_ns += ns;
        switch (e.kind) {
          case EventKind::kCreate:
            stats->create_ns += ns;
            ++stats->create_calls;
            break;
          case EventKind::kWriteRef:
            stats->write_ns += ns;
            ++stats->write_calls;
            break;
          case EventKind::kRead:
          case EventKind::kUpdate:
            stats->access_ns += ns;
            ++stats->access_calls;
            break;
          default:
            stats->other_ns += ns;
            break;
        }
      }
      if (ckpt != nullptr && sim.events_applied() % ckpt->every == 0) {
        ckpt->Write(sim, log);
        prev = Clock::now();
      }
    }
    log.AddAggregate("storage", storage_ns);
    log.AddAggregate("gc", stats->collect_ns - collect_ns0);
    log.AddAggregate("scrubber", stats->heal_ns - heal_ns0);
    log.AddAggregate("governor", stats->governor_ns - governor_ns0);
  }
  ScopedSpan span(log, "sim_finish");
  const Clock::time_point t0 = Clock::now();
  SimResult r = sim.Finish();
  stats->finish_ns += static_cast<uint64_t>(MsSince(t0) * 1e6);
  ++stats->replays;
  return r;
}

// Store/collector/policy counts of a set of results (exact: each stays
// fixed under a change that only alters speed).
void EmitCounts(Report& out, const std::vector<const SimResult*>& results) {
  uint64_t hits = 0, misses = 0, app_io = 0, gc_io = 0, partitions = 0;
  uint64_t collections = 0, reclaimed = 0, clamps = 0;
  for (const SimResult* r : results) {
    hits += r->buffer_hits;
    misses += r->buffer_misses;
    app_io += r->clock.app_io;
    gc_io += r->clock.gc_io;
    partitions += r->final_partition_count;
    collections += r->collections;
    reclaimed += r->total_reclaimed_bytes;
    clamps += r->dt_min_clamps + r->dt_max_clamps;
  }
  out.Metric("storage.buffer_hit_rate",
             hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                               : 0.0,
             "frac");
  out.Metric("storage.app_io_pages", static_cast<double>(app_io), "count");
  out.Metric("storage.gc_io_pages", static_cast<double>(gc_io), "count");
  out.Metric("storage.final_partitions", static_cast<double>(partitions),
             "count");
  out.Metric("gc.collections", static_cast<double>(collections), "count");
  out.Metric("gc.reclaimed_bytes_per_gc_page",
             gc_io > 0 ? static_cast<double>(reclaimed) / gc_io : 0.0,
             "B/page");
  out.Metric("core.saga_dt_clamps", static_cast<double>(clamps), "count");
}

// ---------------------------------------------------------------------
// The paper's grid: fig4 (SAIO, requested I/O% x c_hist 0/inf) and fig5
// (SAGA with FGS/HB, requested garbage%) over several OO7 Small' trace
// seeds at connectivity 3.

struct GridPoint {
  bool saio = false;
  double requested_pct = 0.0;
  size_t hist = 0;
};

constexpr double kFig4Pct[] = {2, 5, 10, 15, 20, 25, 30, 40, 50};
constexpr double kFig5Pct[] = {2, 5, 8, 10, 12, 15, 20, 25, 30};

struct Grid {
  Oo7Params params;
  std::vector<uint64_t> trace_seeds;
  std::vector<SweepPoint> points;
  std::vector<GridPoint> meta;
};

Grid MakeGrid(uint64_t seed, bool tiny) {
  Grid g;
  g.params = tiny ? Oo7Params::Tiny() : Oo7Params::SmallPrime();
  g.params.num_conn_per_atomic = 3;
  const int num_seeds = tiny ? 2 : 12;
  for (int i = 0; i < num_seeds; ++i) {
    g.trace_seeds.push_back(DeriveSeed(seed, static_cast<uint64_t>(i)));
  }
  for (uint64_t ts : g.trace_seeds) {
    for (size_t hist : {size_t{0}, SaioPolicy::kInfiniteHistory}) {
      for (double pct : kFig4Pct) {
        SweepPoint p;
        p.config.policy = PolicyKind::kSaio;
        p.config.saio_frac = pct / 100.0;
        p.config.saio_history = hist;
        p.params = g.params;
        p.seed = ts;
        g.points.push_back(p);
        g.meta.push_back({true, pct, hist});
      }
    }
    for (double pct : kFig5Pct) {
      SweepPoint p;
      p.config.policy = PolicyKind::kSaga;
      p.config.estimator = EstimatorKind::kFgsHb;
      p.config.fgs_history_factor = 0.8;
      p.config.saga.garbage_frac = pct / 100.0;
      p.params = g.params;
      p.seed = ts;
      g.points.push_back(p);
      g.meta.push_back({false, pct, 0});
    }
  }
  return g;
}

// Index of the 10% point of the given policy (and c_hist) for trace seed
// index `s`.
size_t TenPctPoint(const Grid& g, size_t s, bool saio, size_t hist) {
  for (size_t i = 0; i < g.points.size(); ++i) {
    if (g.points[i].seed == g.trace_seeds[s] && g.meta[i].saio == saio &&
        g.meta[i].requested_pct == 10.0 && (!saio || g.meta[i].hist == hist)) {
      return i;
    }
  }
  ODBGC_CHECK_MSG(false, "grid has no 10% point");
  return 0;
}

// Accuracy metrics and the fig4/fig5 ordering check over one grid run.
void EmitAccuracy(Report& out, const Grid& g,
                  const std::vector<RunOutcome>& outcomes) {
  double io_err = 0.0, garbage_err = 0.0;
  size_t io_n = 0, garbage_n = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].status.ok()) continue;
    const SimResult& r = outcomes[i].result;
    if (g.meta[i].saio) {
      io_err += std::fabs(r.achieved_gc_io_pct - g.meta[i].requested_pct);
      ++io_n;
    } else {
      garbage_err +=
          std::fabs(r.garbage_pct.mean() - g.meta[i].requested_pct);
      ++garbage_n;
    }
  }
  out.Metric("io_target_err_pp", io_n > 0 ? io_err / io_n : 0.0, "pp");
  out.Metric("garbage_target_err_pp",
             garbage_n > 0 ? garbage_err / garbage_n : 0.0, "pp");

  // Means over the trace seeds of the 10% points' deviations.
  for (size_t hist : {size_t{0}, SaioPolicy::kInfiniteHistory}) {
    double saio_io = 0, saga_io = 0, saio_garbage = 0, saga_garbage = 0;
    bool ok = true;
    for (size_t s = 0; s < g.trace_seeds.size(); ++s) {
      const RunOutcome& a = outcomes[TenPctPoint(g, s, true, hist)];
      const RunOutcome& b = outcomes[TenPctPoint(g, s, false, 0)];
      ok = ok && a.status.ok() && b.status.ok();
      saio_io += std::fabs(a.result.achieved_gc_io_pct - 10.0);
      saga_io += std::fabs(b.result.achieved_gc_io_pct - 10.0);
      saio_garbage += std::fabs(a.result.garbage_pct.mean() - 10.0);
      saga_garbage += std::fabs(b.result.garbage_pct.mean() - 10.0);
    }
    const char* suffix = hist == 0 ? "hist0" : "histinf";
    out.Check(std::string("fig4_saio_wins_io_at_10pct_") + suffix,
              ok && saio_io < saga_io);
    out.Check(std::string("fig5_saga_wins_garbage_at_10pct_") + suffix,
              ok && saga_garbage < saio_garbage);
  }
}

// Runs the grid once through a SweepRunner (untimed) and reports the
// accuracy metrics: the paper-result guard carried by every workload.
void AccuracyGuard(Report& out, const Options& opt) {
  const Grid g = MakeGrid(opt.seed, opt.tiny);
  SweepRunner runner(4);
  const std::vector<RunOutcome> outcomes = runner.RunWithStatus(g.points);
  for (const RunOutcome& o : outcomes) out.Op(o.status.ok());
  EmitAccuracy(out, g, outcomes);
}

// Generates every trace of the grid into the runner's cache, in parallel
// on its pool. Returns the total event count.
uint64_t WarmCache(SweepRunner& runner, const Grid& g) {
  std::vector<uint64_t> sizes(g.trace_seeds.size(), 0);
  runner.pool().ParallelFor(g.trace_seeds.size(), [&](size_t i) {
    sizes[i] = runner.cache().GetOo7(g.params, g.trace_seeds[i])->size();
  });
  uint64_t total = 0;
  for (uint64_t n : sizes) total += n;
  return total;
}

// Sweep worker spans (get_trace / run_simulation) read back from
// SweepRunner::ExportTrace, re-based onto the span log's clock.
struct WorkerTrace {
  std::vector<std::unique_ptr<obs::TraceRecorder>> recorders;
  std::vector<obs::TraceThread> threads;
  std::vector<double> run_ms;
  double get_trace_ms = 0.0;
  double busy_ms = 0.0;
};

bool LoadWorkerTrace(const std::string& path, uint64_t offset_us,
                     int tid_base, WorkerTrace* wt) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue doc;
  std::string error;
  if (!JsonValue::Parse(text, &doc, &error)) return false;
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) return false;
  std::map<int, obs::TraceRecorder*> by_tid;
  std::map<int, std::vector<double>> open;  // per tid: open span starts
  for (const JsonValue& e : events->array_items()) {
    const JsonValue* ph = e.Find("ph");
    const JsonValue* name = e.Find("name");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* tid = e.Find("tid");
    if (ph == nullptr || name == nullptr || ts == nullptr || tid == nullptr) {
      continue;
    }
    const std::string& p = ph->string_value();
    if (p != "B" && p != "E") continue;
    const char* span = name->string_value() == "get_trace" ? "get_trace"
                       : name->string_value() == "run_simulation"
                           ? "run_simulation"
                           : nullptr;
    if (span == nullptr) continue;
    const int t = static_cast<int>(tid->number_value());
    obs::TraceRecorder*& rec = by_tid[t];
    if (rec == nullptr) {
      wt->recorders.push_back(std::make_unique<obs::TraceRecorder>());
      rec = wt->recorders.back().get();
      wt->threads.push_back(obs::TraceThread{
          rec, tid_base + t, "sweep-" + std::to_string(tid_base + t)});
    }
    const double us = ts->number_value();
    const uint64_t at = offset_us + static_cast<uint64_t>(us);
    if (p == "B") {
      rec->Begin(span, at);
      open[t].push_back(us);
    } else {
      rec->End(span, at);
      if (open[t].empty()) return false;
      const double ms = (us - open[t].back()) / 1000.0;
      open[t].pop_back();
      if (std::strcmp(span, "run_simulation") == 0) wt->run_ms.push_back(ms);
      if (std::strcmp(span, "get_trace") == 0) wt->get_trace_ms += ms;
      wt->busy_ms += ms;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Workload oo7_sweep.

void RunSweepWorkload(const Options& opt, Report& out, SpanLog& log,
                      WorkerTrace* worker_trace) {
  const Grid g = MakeGrid(opt.seed, opt.tiny);
  const int threads = 4;

  std::vector<double> setup_ms, generate_ms;
  std::vector<uint64_t> first_digests;
  std::vector<RunOutcome> first_outcomes;
  std::vector<double> eps, eps_plain, traced_batches_ms;
  uint64_t trace_events = 0, cache_hits = 0, cache_misses = 0;
  bool digests_stable = true;
  bool workers_exported = true;
  int traced_runners = 0;
  std::unique_ptr<SweepRunner> runner;
  RepPeakRss rss;
  SpanLog quiet(false);
  // One repetition: set-up (a fresh runner, every trace generated into
  // its cache, so the timed batch is all cache hits), then the timed
  // grid, then the digest check.
  auto rep = [&](bool traced, int i) {
    SpanLog& l = traced ? log : quiet;
    ScopedSpan root(l, kRootSpan);
    if (runner != nullptr) {
      ScopedSpan span(l, "sim_parallel");
      runner.reset();
    }
    const bool measured = i > 0 && (traced || !opt.trace);
    if (measured) rss.Start();
    const Clock::time_point t0 = Clock::now();
    const uint64_t origin_us = log.NowNs() / 1000;
    runner = std::make_unique<SweepRunner>(threads);
    if (traced) runner->EnableTracing();
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span(l, "oo7");
      trace_events = WarmCache(*runner, g);
    }
    if (traced || !opt.trace) {
      generate_ms.push_back(MsSince(t1));
      setup_ms.push_back(MsSince(t0));
    }

    const Clock::time_point t2 = Clock::now();
    std::vector<RunOutcome> outcomes;
    {
      ScopedSpan span(l, "sim_parallel");
      outcomes = runner->RunWithStatus(g.points);
    }
    const double ms = MsSince(t2);
    if (measured) rss.Stop();
    uint64_t events = 0;
    for (const RunOutcome& o : outcomes) {
      out.Op(o.status.ok());
      if (o.status.ok()) events += o.result.clock.events;
    }
    ScopedSpan span(l, "bench_check");
    std::vector<uint64_t> digests;
    for (const RunOutcome& o : outcomes) {
      digests.push_back(o.status.ok() ? ResultDigest(o.result) : 0);
    }
    if (first_digests.empty()) {
      first_digests = digests;
      first_outcomes = std::move(outcomes);
    } else if (digests != first_digests) {
      digests_stable = false;
    }
    if (traced) {
      // Worker spans of this runner, re-based onto the span log's clock
      // under their own thread ids.
      const std::string path = opt.out_dir + "/sweep_workers.json";
      workers_exported = workers_exported && runner->ExportTrace(path) &&
                         LoadWorkerTrace(path, origin_us,
                                         100 + 10 * traced_runners,
                                         worker_trace);
      ++traced_runners;
      traced_batches_ms.push_back(ms);
      cache_hits += runner->cache().hits();
      cache_misses += runner->cache().misses();
    }
    if (i == 0) return;  // warm-up
    const double rate = 1000.0 * static_cast<double>(events) / ms;
    (traced || !opt.trace ? eps : eps_plain).push_back(rate);
  };
  RepeatFor(opt.seconds, opt.trace ? 2 : 3, [&](int i) {
    if (opt.trace) rep(false, i);
    rep(opt.trace, i);
  });
  out.Check("sweep_digests_identical_across_repetitions", digests_stable);

  // The Apply-driven replay of one SAIO and one SAGA 10% point must
  // reproduce the SweepRunner's result exactly.
  ApplyStats stats;
  bool replay_ok = true;
  {
    ScopedSpan root(log, kRootSpan);
    for (bool saio : {true, false}) {
      const size_t idx = TenPctPoint(g, 0, saio, 0);
      const SweepPoint& p = g.points[idx];
      SimConfig cfg = p.config;
      ApplyRunSeeds(&cfg, p.seed);
      std::shared_ptr<const Trace> trace = runner->cache().GetOo7(p.params,
                                                                  p.seed);
      std::unique_ptr<Simulation> sim;
      {
        ScopedSpan span(log, "sim_lifecycle");
        sim = std::make_unique<Simulation>(cfg);
      }
      const SimResult r = Replay(*sim, *trace, nullptr, &stats, log);
      {
        ScopedSpan span(log, "sim_lifecycle");
        sim.reset();
      }
      ScopedSpan span(log, "bench_check");
      replay_ok = replay_ok && first_outcomes[idx].status.ok() &&
                  ResultDigest(r) == first_digests[idx];
    }
  }
  out.Check("apply_replay_matches_sweep_runner", replay_ok);

  EmitAccuracy(out, g, first_outcomes);
  LogSeries("events_per_s", eps);
  LogSeries("setup_ms", setup_ms);
  out.Metric("peak_rss_mb", rss.MedianMb(), "MB");
  out.Metric("events_per_s", Median(eps), "1/s");
  out.Metric("setup_s", Median(setup_ms) / 1000.0, "s");

  if (!opt.trace) return;
  stats.Emit(out);
  std::vector<const SimResult*> results;
  for (const RunOutcome& o : first_outcomes) {
    if (o.status.ok()) results.push_back(&o.result);
  }
  EmitCounts(out, results);
  out.Metric("oo7.generate_ms", Median(generate_ms), "ms");
  out.Metric("oo7.trace_events", static_cast<double>(trace_events), "count");
  out.Metric("sweep.cache_hits", static_cast<double>(cache_hits), "count");
  out.Metric("sweep.cache_misses", static_cast<double>(cache_misses),
             "count");
  out.Check("sweep_worker_trace_exported", workers_exported);
  double traced_batch_ms = 0.0;
  for (double ms : traced_batches_ms) traced_batch_ms += ms;
  out.Metric("sweep.run_ms_p50", Percentile(worker_trace->run_ms, 50), "ms");
  out.Metric("sweep.run_ms_p90", Percentile(worker_trace->run_ms, 90), "ms");
  out.Metric("sweep.trace_wait_ms",
             traced_runners > 0 ? worker_trace->get_trace_ms / traced_runners
                                : 0.0,
             "ms");
  out.Metric("sweep.worker_busy_frac",
             traced_batch_ms > 0
                 ? worker_trace->busy_ms / (threads * traced_batch_ms)
                 : 0.0,
             "frac");
  out.Metric("trace.overhead_frac",
             Median(eps) > 0 ? Median(eps_plain) / Median(eps) - 1.0 : 0.0,
             "frac");
}

// ---------------------------------------------------------------------
// Workload oo7_ops: one operator-style SAGA run with every operational
// feature on.

SimConfig OpsConfig(bool tiny, uint64_t trace_seed) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.saga.garbage_frac = 0.10;
  cfg.telemetry.enabled = true;
  cfg.telemetry.capture_trace = true;
  cfg.telemetry.page_events = false;
  cfg.telemetry.record_decisions = true;
  cfg.telemetry.sample_interval_events =
      obs::TimeSeriesSampler::kDefaultIntervalEvents;
  // Ceiling above the uncapped footprint (~9 MB at Small' connectivity
  // 9): the governor's yellow band engages (rate boosts) without the
  // safe-mode storms a ceiling at the footprint itself causes.
  cfg.store.max_db_bytes = (tiny ? 1ull : 12ull) << 20;
  cfg.governor.enabled = true;
  cfg.store.fault.bitflip_prob = 0.0005;
  cfg.scrub_interval_events = 2000;
  cfg.auto_repair = true;
  ApplyRunSeeds(&cfg, trace_seed);
  return cfg;
}

struct OpsOutcome {
  bool ok = false;
  SimResult result;
  double export_ms = 0.0;
  uint64_t export_bytes = 0;
};

// One operational run: replay with checkpoints, Finish, export every
// artifact. `sim` is freshly constructed by the caller.
OpsOutcome RunOps(Simulation& sim, const Trace& trace, CheckpointPlan& ckpt,
                  ApplyStats* stats, SpanLog& log, const std::string& dir,
                  bool exports) {
  OpsOutcome o;
  try {
    o.result = Replay(sim, trace, &ckpt, stats, log);
  } catch (const SimError& e) {  // SpaceExhaustedError among others
    std::fprintf(stderr, "oo7_ops: %s\n", e.what());
    return o;
  }
  o.ok = true;
  if (!exports) return o;
  ScopedSpan span(log, "obs_export");
  const Clock::time_point t0 = Clock::now();
  const std::string report = dir + "/ops_report.json";
  const std::string decisions = dir + "/ops_decisions.jsonl";
  const std::string series = dir + "/ops_timeseries.jsonl";
  const std::string chrome = dir + "/ops_sim_trace.json";
  o.ok = WriteResultJson(o.result, report) &&
         WriteDecisionsJsonl(o.result, decisions) &&
         WriteTimeSeriesJsonl(o.result, series);
  obs::Telemetry* tel = sim.telemetry();
  o.ok = o.ok && tel != nullptr && tel->recorder() != nullptr &&
         obs::WriteChromeTrace(
             {obs::TraceThread{tel->recorder(), 1, "simulation"}}, chrome);
  o.export_ms = MsSince(t0);
  o.export_bytes = FileBytes(report) + FileBytes(decisions) +
                   FileBytes(series) + FileBytes(chrome);
  return o;
}

void RunOpsWorkload(const Options& opt, Report& out, SpanLog& log) {
  Oo7Params params = opt.tiny ? Oo7Params::Tiny() : Oo7Params::SmallPrime();
  params.num_conn_per_atomic = 9;
  const uint64_t trace_seed = DeriveSeed(opt.seed, 0);
  const SimConfig cfg = OpsConfig(opt.tiny, trace_seed);
  SimConfig cfg_off = cfg;
  cfg_off.telemetry = obs::TelemetryOptions{};
  // Sizes the checkpoint cadence: three checkpoints per run at full
  // size, a sizeable minority of the run's wall time.
  const uint64_t events = GenerateOo7Trace(params, trace_seed)->size();
  const uint64_t every = opt.tiny ? std::max<uint64_t>(1, events / 4) : 262144;
  // Calibration runs of a traced run (untraced, and telemetry off)
  // checkpoint to their own file.
  CheckpointPlan ckpt(opt.out_dir + "/ops.ckpt", every);
  CheckpointPlan ckpt_calibration(opt.out_dir + "/ops_calibration.ckpt",
                                  every);

  ApplyStats stats;
  std::vector<double> setup_ms, generate_ms;
  std::vector<double> eps, eps_plain, eps_off, export_ms;
  uint64_t export_bytes = 0;
  bool all_ok = true;
  bool deterministic = true;
  bool repaired = true;
  uint64_t first_digest = 0;
  SimResult last;
  std::shared_ptr<const Trace> trace;
  RepPeakRss rss;
  SpanLog quiet(false);
  // One repetition: set-up (trace generation, Simulation construction),
  // then the timed run with checkpoints and exports, then its checks.
  auto one_run = [&](const SimConfig& c, bool traced, bool exports, int i,
                     std::vector<double>* rates) {
    SpanLog& l = traced ? log : quiet;
    ScopedSpan root(l, kRootSpan);
    {
      ScopedSpan span(l, "oo7");
      trace.reset();
    }
    const bool measured = i > 0 && rates == &eps;
    if (measured) rss.Start();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(l, "oo7");
      trace = GenerateOo7Trace(params, trace_seed);
    }
    const double gen_ms = MsSince(t0);
    std::unique_ptr<Simulation> sim;
    {
      ScopedSpan span(l, "sim_lifecycle");
      sim = std::make_unique<Simulation>(c);
    }
    if (rates == &eps) {
      generate_ms.push_back(gen_ms);
      setup_ms.push_back(MsSince(t0));
    }
    const Clock::time_point t1 = Clock::now();
    OpsOutcome o =
        RunOps(*sim, *trace, traced || !opt.trace ? ckpt : ckpt_calibration,
               traced ? &stats : nullptr, l, opt.out_dir, exports);
    const double ms = MsSince(t1);
    if (measured) rss.Stop();
    {
      ScopedSpan span(l, "sim_lifecycle");
      sim.reset();
    }
    out.Op(o.ok);
    all_ok = all_ok && o.ok;
    if (!o.ok) return;
    if (exports) {
      ScopedSpan span(l, "bench_check");
      const uint64_t d = ResultDigest(o.result);
      if (first_digest == 0) first_digest = d;
      deterministic = deterministic && d == first_digest;
      repaired = repaired && o.result.partitions_quarantined ==
                                 o.result.partitions_repaired;
      export_bytes = o.export_bytes;
      if (traced || !opt.trace) export_ms.push_back(o.export_ms);
      last = std::move(o.result);
    }
    if (i > 0) rates->push_back(1000.0 * static_cast<double>(events) / ms);
  };
  RepeatFor(opt.seconds, opt.trace ? 2 : 3, [&](int i) {
    if (opt.trace) {
      one_run(cfg, false, true, i, &eps_plain);
      one_run(cfg_off, false, false, i, &eps_off);
    }
    one_run(cfg, opt.trace, true, i, &eps);
  });
  // Every checkpoint write is an operation too.
  for (const CheckpointPlan* p : {&ckpt, &ckpt_calibration}) {
    out.Ops(p->writes, p->write_failures);
  }
  out.Check("ops_no_space_exhaustion_and_deterministic",
            all_ok && first_digest != 0 && deterministic);
  out.Check("ops_every_quarantine_repaired",
            first_digest != 0 && repaired && last.partitions_quarantined > 0);

  // Resume from the last checkpoint and replay to the end: the final
  // report must be byte-identical to the uninterrupted run's.
  double resume_ms = 0.0;
  bool resumed_ok = false;
  {
    ScopedSpan root(log, kRootSpan);
    const Clock::time_point t0 = Clock::now();
    ResumeResult rr;
    {
      ScopedSpan span(log, "checkpoint");
      rr = ResumeFromCheckpoint(cfg, ckpt.path);
    }
    resume_ms = MsSince(t0);
    out.Op(rr.ok());
    if (rr.ok()) {
      SpanLog quiet(false);
      SimResult r;
      {
        ScopedSpan span(log, "trace_replay");
        r = Replay(*rr.sim, *trace, nullptr, nullptr, quiet);
      }
      ScopedSpan span(log, "bench_check");
      resumed_ok = ResultDigest(r) == first_digest;
    }
  }
  out.Check("ops_resume_from_last_checkpoint_byte_identical", resumed_ok);

  LogSeries("events_per_s", eps);
  LogSeries("setup_ms", setup_ms);
  out.Metric("peak_rss_mb", rss.MedianMb(), "MB");
  out.Metric("events_per_s", Median(eps), "1/s");
  out.Metric("setup_s", Median(setup_ms) / 1000.0, "s");
  if (!opt.trace) return;

  stats.Emit(out);
  EmitCounts(out, {&last});
  out.Metric("oo7.generate_ms", Median(generate_ms), "ms");
  out.Metric("oo7.trace_events", static_cast<double>(events), "count");
  out.Metric("checkpoint.count",
             static_cast<double>(events / ckpt.every), "count");
  out.Metric("checkpoint.write_ms_p50", Percentile(ckpt.write_ms, 50), "ms");
  out.Metric("checkpoint.write_ms_max", Percentile(ckpt.write_ms, 100),
             "ms");
  out.Metric("checkpoint.bytes", static_cast<double>(FileBytes(ckpt.path)),
             "B");
  out.Metric("checkpoint.resume_ms", resume_ms, "ms");
  out.Metric("obs.export_ms", Median(export_ms), "ms");
  out.Metric("obs.export_bytes", static_cast<double>(export_bytes), "B");
  out.Metric("obs.ledger_records", static_cast<double>(last.decisions.size()),
             "count");
  out.Metric("obs.timeseries_frames",
             static_cast<double>(last.timeseries.size()), "count");
  out.Metric("obs.enabled_overhead_frac",
             Median(eps_plain) > 0 ? Median(eps_off) / Median(eps_plain) - 1.0
                                   : 0.0,
             "frac");
  out.Metric("governor.boost_collections",
             static_cast<double>(last.governor_boost_collections), "count");
  out.Metric("governor.emergency_collections",
             static_cast<double>(last.governor_emergency_collections),
             "count");
  out.Metric("governor.safe_mode_entries",
             static_cast<double>(last.safe_mode_entries), "count");
  out.Metric("governor.peak_utilization_pct",
             static_cast<double>(last.peak_utilization_pct_x100) / 100.0,
             "%");
  out.Metric("heal.pages_scrubbed", static_cast<double>(last.pages_scrubbed),
             "count");
  out.Metric("heal.partitions_repaired",
             static_cast<double>(last.partitions_repaired), "count");
  out.Metric("trace.overhead_frac",
             Median(eps) > 0 ? Median(eps_plain) / Median(eps) - 1.0 : 0.0,
             "frac");
}

// ---------------------------------------------------------------------
// Workload fleet_1000: streaming clients through the sharded engine.

struct FleetShape {
  size_t clients = 1000;
  uint64_t cycles = 150;
};

// The cell is ext_multi_tenant's 1000-client cell except for the epoch
// length. At its 4096-event epochs (680 apply barriers per run) the wall
// time swung by +-27% from run to run on a 4-vCPU VM, because each
// barrier waits for idle vCPUs to wake; at 32768 the swing was +-13%, the
// same host noise the other workloads see. The coordinator keeps its
// 32768-event cadence (8 epochs of 4096). The traced run still times the
// 4096-event cell (fleet.epoch4096_run_ms), whose barrier cost ROADMAP
// item 3 targets.
constexpr uint32_t kFleetEpochEvents = 32768;
constexpr uint32_t kAcceptanceEpochEvents = 4096;
constexpr uint32_t kCoordinatorEveryEvents = 32768;

MultiTenantOptions FleetOptions(uint64_t seed, int threads,
                                uint32_t epoch_events) {
  MultiTenantOptions opt;
  opt.num_shards = 8;
  opt.threads = threads;
  opt.epoch_events = epoch_events;
  opt.catalog_per_shard = 4;
  opt.share_prob = 0.05;
  opt.seed = seed;
  opt.coordinator_period = kCoordinatorEveryEvents / epoch_events;
  opt.global_io_frac = 0.10;
  SimConfig& cfg = opt.shard_config;
  // The ext_multi_tenant shard configuration: scaled-down SAIO stores
  // with telemetry on for the per-shard stall histograms.
  cfg.store.partition_bytes = 32 * 1024;
  cfg.store.page_bytes = 4 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  cfg.saio_bootstrap_app_io = 500;
  cfg.preamble_collections = 4;
  cfg.record_collection_log = false;
  cfg.telemetry.enabled = true;
  return opt;
}

MuxClientOptions ClientMuxOptions(uint64_t seed, size_t c) {
  MuxClientOptions m;
  m.base_chunk = 32;
  m.chunk_jitter = 16;
  m.think_time = 4;
  m.seed = DeriveSeed(seed, 2 * c + 1);
  return m;
}

std::unique_ptr<EventSource> ClientSource(uint64_t seed, size_t c,
                                          uint64_t cycles) {
  StreamingChurnOptions o;
  o.seed = DeriveSeed(seed, 2 * c + 2);
  o.cycles = cycles;
  return std::make_unique<StreamingChurnSource>(o);
}

std::unique_ptr<MultiTenantEngine> BuildFleet(
    uint64_t seed, int threads, const FleetShape& shape,
    uint32_t epoch_events = kFleetEpochEvents) {
  auto engine = std::make_unique<MultiTenantEngine>(
      FleetOptions(seed, threads, epoch_events));
  for (size_t c = 0; c < shape.clients; ++c) {
    engine->AddClient(ClientSource(seed, c, shape.cycles),
                      ClientMuxOptions(seed, c));
  }
  return engine;
}

void RunFleetWorkload(const Options& opt, Report& out, SpanLog& log) {
  const uint64_t seed = DeriveSeed(opt.seed, 0);
  FleetShape shape;
  if (opt.tiny) shape = {10, 300};
  const int threads = 4;

  // Every repetition builds a fresh engine; each build is one set-up.
  std::vector<double> setup_ms, run_ms, run_ms_plain, eps;
  std::vector<uint64_t> checksums;
  MultiTenantReport last;
  double imbalance = 0.0;
  uint64_t engine_bytes = 0;
  RepPeakRss rss;
  SpanLog quiet(false);
  auto one_fleet = [&](bool traced, int i) {
    SpanLog& l = traced ? log : quiet;
    ScopedSpan root(l, kRootSpan);
    const bool measured = i > 0 && (traced || !opt.trace);
    if (measured) rss.Start();
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<MultiTenantEngine> engine;
    {
      ScopedSpan span(l, "fleet_lifecycle");
      engine = BuildFleet(seed, threads, shape);
    }
    const double setup = MsSince(t0);
    t0 = Clock::now();
    MultiTenantReport rep;
    {
      ScopedSpan span(l, "multi_tenant");
      rep = engine->Run();
    }
    const double ms = MsSince(t0);
    if (measured) rss.Stop();
    out.Op(rep.events > 0);
    {
      ScopedSpan span(l, "bench_check");
      checksums.push_back(rep.FleetChecksum());
      if (!opt.trace || traced) setup_ms.push_back(setup);
      if (i > 0 && (!opt.trace || traced)) {
        run_ms.push_back(ms);
        eps.push_back(1000.0 * static_cast<double>(rep.events) / ms);
      } else if (i > 0) {
        run_ms_plain.push_back(ms);
      }
      if (traced) {
        uint64_t max_events = 0, sum_events = 0;
        for (size_t s = 0; s < engine->num_shards(); ++s) {
          const uint64_t n = engine->shard(s).events_applied();
          max_events = std::max(max_events, n);
          sum_events += n;
        }
        imbalance = sum_events > 0 ? static_cast<double>(max_events) *
                                         engine->num_shards() / sum_events
                                   : 0.0;
        engine_bytes = engine->ApproxMemoryBytes();
        last = std::move(rep);
      }
    }
    ScopedSpan span(l, "fleet_lifecycle");
    engine.reset();
  };
  RepeatFor(opt.seconds, opt.trace ? 2 : 3, [&](int i) {
    if (opt.trace) one_fleet(false, i);
    one_fleet(opt.trace, i);
  });
  bool stable = true;
  for (uint64_t c : checksums) stable = stable && c == checksums.front();
  out.Check("fleet_checksum_identical_across_repetitions", stable);

  // One run of a variant cell (thread count, epoch length); returns its
  // Run time.
  auto run_cell = [&](int cell_threads, uint32_t epoch_events,
                      MultiTenantReport* rep) {
    ScopedSpan root(log, kRootSpan);
    std::unique_ptr<MultiTenantEngine> engine;
    {
      ScopedSpan span(log, "fleet_lifecycle");
      engine = BuildFleet(seed, cell_threads, shape, epoch_events);
    }
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(log, "multi_tenant");
      *rep = engine->Run();
    }
    const double ms = MsSince(t0);
    out.Op(rep->events > 0);
    ScopedSpan span(log, "fleet_lifecycle");
    engine.reset();
    return ms;
  };
  // The same cell on one apply thread must give the same checksum.
  MultiTenantReport rep_1t;
  const double run_1t_ms = run_cell(1, kFleetEpochEvents, &rep_1t);
  out.Check("fleet_checksum_4t_equals_1t",
            !checksums.empty() && rep_1t.FleetChecksum() == checksums.front());

  LogSeries("events_per_s", eps);
  LogSeries("setup_ms", setup_ms);
  out.Metric("peak_rss_mb", rss.MedianMb(), "MB");
  out.Metric("events_per_s", Median(eps), "1/s");
  out.Metric("setup_s", Median(setup_ms) / 1000.0, "s");
  if (!opt.trace) return;

  MultiTenantReport rep_4096;
  const double run_4096_ms = run_cell(threads, kAcceptanceEpochEvents,
                                      &rep_4096);

  // Standalone drain of an identically built mux: the serial ceiling.
  double drain_ms = 0.0;
  uint64_t drained = 0;
  {
    ScopedSpan root(log, kRootSpan);
    auto mux = std::make_unique<ClientMux>();
    {
      ScopedSpan span(log, "fleet_lifecycle");
      for (size_t c = 0; c < shape.clients; ++c) {
        mux->AddClient(ClientSource(seed, c, shape.cycles),
                       ClientMuxOptions(seed, c));
      }
    }
    {
      ScopedSpan span(log, "client_mux");
      const Clock::time_point t0 = Clock::now();
      TraceEvent e;
      uint32_t client = 0;
      while (mux->Next(&e, &client)) ++drained;
      drain_ms = MsSince(t0);
    }
    ScopedSpan span(log, "fleet_lifecycle");
    mux.reset();
  }
  out.Check("mux_drain_matches_fleet_events", drained == last.events);

  std::vector<const SimResult*> shards;
  for (const SimResult& r : last.shards) shards.push_back(&r);
  EmitCounts(out, shards);
  const double fleet_ms = Median(run_ms);
  out.Metric("mux.drain_events_per_s",
             drain_ms > 0 ? 1000.0 * drained / drain_ms : 0.0, "1/s");
  out.Metric("fleet.run_ms", fleet_ms, "ms");
  out.Metric("fleet.serial_bound_frac",
             fleet_ms > 0 ? drain_ms / fleet_ms : 0.0, "frac");
  out.Metric("fleet.speedup_vs_1t", fleet_ms > 0 ? run_1t_ms / fleet_ms : 0.0,
             "x");
  out.Metric("fleet.shard_events_imbalance", imbalance, "x");
  out.Metric("fleet.epochs", static_cast<double>(last.epochs), "count");
  out.Metric("fleet.xshard_writes", static_cast<double>(last.xshard_writes),
             "count");
  out.Metric("fleet.budget_grants", static_cast<double>(last.budget_grants),
             "count");
  out.Metric("fleet.stall_gc_copy_p99_pages", last.stall_gc_copy.p99,
             "pages");
  out.Metric("fleet.engine_bytes", static_cast<double>(engine_bytes), "B");
  out.Metric("fleet.epoch4096_run_ms", run_4096_ms, "ms");
  out.Metric("trace.overhead_frac",
             fleet_ms > 0 ? Median(run_ms_plain) / fleet_ms - 1.0 : 0.0,
             "frac");
  // Negative overhead (traced faster than untraced) is run-to-run noise;
  // it is reported as measured.
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) Usage("cannot create --out-dir '" + opt.out_dir + "'");

  Report out;
  SpanLog log(opt.trace);
  WorkerTrace worker_trace;
  if (opt.trace) {
    for (const LayerMetric& m : kLayerMetrics) out.Metric(m.name, 0.0, m.unit);
  }
  if (opt.workload == "oo7_sweep") {
    RunSweepWorkload(opt, out, log, &worker_trace);
  } else if (opt.workload == "oo7_ops") {
    RunOpsWorkload(opt, out, log);
  } else {
    RunFleetWorkload(opt, out, log);
  }
  if (opt.trace) {
    const std::map<std::string, uint64_t> self = log.SelfNs();
    const double root_ns = static_cast<double>(log.RootNs());
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      const double ns = it == self.end() ? 0.0 : static_cast<double>(it->second);
      out.Metric(std::string("self_frac.") + layer,
                 root_ns > 0 ? ns / root_ns : 0.0, "frac");
    }
    const auto root = self.find(kRootSpan);
    out.Metric("trace.unattributed_frac",
               root != self.end() && root_ns > 0 ? root->second / root_ns
                                                 : 1.0,
               "frac");
    out.Check("trace_written",
              log.WriteTrace(opt.out_dir + "/trace.json", worker_trace.threads));
  } else {
    if (opt.workload != "oo7_sweep") AccuracyGuard(out, opt);
  }
  out.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
