#ifndef ODBGC_TRACE_EVENT_SOURCE_H_
#define ODBGC_TRACE_EVENT_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "trace/trace.h"

namespace odbgc {

// A pull-based stream of trace events — the streaming counterpart of a
// materialized Trace. The multi-tenant client mux (sim/client_mux.h)
// draws from thousands of these, so an implementation must hold O(its
// own live set) state, never O(events it will ever emit).
// Implementations are single-consumer and need not be thread-safe, but
// distinct sources must not share mutable state: the sharded engine
// drains each client's source on whichever worker thread applies the
// owning shard (immutable shared data, like a cached trace, is fine).
class EventSource {
 public:
  virtual ~EventSource() = default;

  // Produces the next event into *out. Returns false when the source is
  // exhausted (and forever after); *out is untouched in that case.
  virtual bool Next(TraceEvent* out) = 0;

  // The largest object id this source will ever emit (its private id
  // space starts at 1). Must be answerable before any event is drawn —
  // the mux assigns each client a disjoint id range up front from this.
  virtual uint32_t max_object_id() const = 0;

  // Resident bytes attributable to this source's own state (shadow
  // lists, pending buffers). Shared immutable data (a cached trace) is
  // excluded — the owner of the cache accounts for it once.
  virtual size_t ApproxMemoryBytes() const { return 0; }
};

// An EventSource replaying a materialized trace through a cursor. Holds
// only a shared_ptr and an index, so thousands of clients can replay the
// same cached trace with no copies. The caller supplies max_object_id
// (typically MaxObjectId(*trace), computed once per distinct trace and
// reused across every client sharing it).
class TraceCursorSource : public EventSource {
 public:
  TraceCursorSource(std::shared_ptr<const Trace> trace,
                    uint32_t max_object_id)
      : trace_(std::move(trace)), max_id_(max_object_id) {}

  bool Next(TraceEvent* out) override {
    if (trace_ == nullptr || pos_ >= trace_->size()) return false;
    *out = (*trace_)[pos_++];
    return true;
  }

  uint32_t max_object_id() const override { return max_id_; }

 private:
  std::shared_ptr<const Trace> trace_;
  size_t pos_ = 0;
  uint32_t max_id_;
};

}  // namespace odbgc

#endif  // ODBGC_TRACE_EVENT_SOURCE_H_
