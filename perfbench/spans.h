#ifndef ODBGC_PERFBENCH_SPANS_H_
#define ODBGC_PERFBENCH_SPANS_H_

// In-memory span log for the benchmark's traced run. Spans are recorded
// from the benchmark's own code, around its calls into each odbgc layer,
// on the driver's main thread only; they are kept in memory and written
// once, at exit, as a Chrome/Perfetto trace through obs::TraceRecorder.
//
// A layer's self time is its spans' duration minus the part covered by
// child spans. Layers whose calls are too frequent to record one span
// each (per-event Simulation::Apply) are booked as aggregates: time the
// open span spent inside that layer, subtracted from the open span's
// self time and added to the layer's. Top-level "bench" spans bound the
// traced wall time; their own self time is the unattributed remainder.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/perfetto_export.h"
#include "obs/trace_recorder.h"
#include "util/check.h"

namespace perfbench {

namespace obs = odbgc::obs;
using Clock = std::chrono::steady_clock;

inline constexpr const char* kRootSpan = "bench";

class SpanLog {
 public:
  explicit SpanLog(bool enabled)
      : enabled_(enabled), owner_(std::this_thread::get_id()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Opens a span named `layer` (a string literal) under the innermost
  // open span. Returns its index, or -1 when the log is disabled.
  int Begin(const char* layer) {
    if (!enabled_) return -1;
    ODBGC_CHECK(std::this_thread::get_id() == owner_);
    Span s;
    s.name = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (id < 0) return;
    ODBGC_CHECK(!stack_.empty() && stack_.back() == id);
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }

  // Books `ns` spent in `layer` (a string literal) inside the innermost
  // open span without recording a span per call.
  void AddAggregate(const char* layer, uint64_t ns) {
    if (!enabled_ || stack_.empty() || ns == 0) return;
    spans_[stack_.back()].aggregates[layer] += ns;
  }

  // Self time per layer over all closed spans, in nanoseconds. The root
  // span's self time is reported under kRootSpan.
  std::map<std::string, uint64_t> SelfNs() const {
    std::vector<uint64_t> covered(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, uint64_t> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      uint64_t inner = covered[i];
      for (const auto& [layer, ns] : s.aggregates) {
        self[layer] += ns;
        inner += ns;
      }
      const uint64_t dur = s.end_ns - s.start_ns;
      self[s.name] += dur > inner ? dur - inner : 0;
    }
    return self;
  }

  // Total duration of the top-level spans: the traced wall time.
  uint64_t RootNs() const {
    uint64_t total = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0) total += s.end_ns - s.start_ns;
    }
    return total;
  }

  // Writes every span (plus any extra threads, e.g. sweep workers) as a
  // Chrome trace. Aggregates appear as counter samples at the end of the
  // span that holds them. False on I/O failure.
  bool WriteTrace(const std::string& path,
                  const std::vector<obs::TraceThread>& extra) const {
    obs::TraceRecorder rec(spans_.size() * 4 + 16);
    std::vector<std::vector<int>> children(spans_.size());
    std::vector<int> roots;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) {
        roots.push_back(static_cast<int>(i));
      } else {
        children[spans_[i].parent].push_back(static_cast<int>(i));
      }
    }
    // Spans nest and were opened in time order, so a depth-first walk
    // emits B/E pairs with non-decreasing timestamps.
    std::vector<std::pair<int, bool>> work;
    for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
      work.push_back({*it, false});
    }
    while (!work.empty()) {
      auto [i, closing] = work.back();
      work.pop_back();
      const Span& s = spans_[i];
      if (closing) {
        for (const auto& [layer, ns] : s.aggregates) {
          rec.CounterSample(layer, s.end_ns / 1000,
                            static_cast<double>(ns) / 1e6);
        }
        rec.End(s.name, s.end_ns / 1000);
        continue;
      }
      rec.Begin(s.name, s.start_ns / 1000);
      work.push_back({i, true});
      for (auto it = children[i].rbegin(); it != children[i].rend(); ++it) {
        work.push_back({*it, false});
      }
    }
    std::vector<obs::TraceThread> threads{
        obs::TraceThread{&rec, 1, "perfbench-main"}};
    threads.insert(threads.end(), extra.begin(), extra.end());
    return obs::WriteChromeTrace(threads, path, "odbgc-perfbench");
  }

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }

 private:
  struct Span {
    const char* name = "";
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    std::map<const char*, uint64_t> aggregates;
  };

  bool enabled_;
  std::thread::id owner_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span on a SpanLog (a no-op when the log is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* layer)
      : log_(log), id_(log.Begin(layer)) {}
  ~ScopedSpan() { log_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench

#endif  // ODBGC_PERFBENCH_SPANS_H_
