#include "sim/client_mux.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/multi_client.h"
#include "util/check.h"

namespace odbgc {

size_t ClientMux::AddClient(std::unique_ptr<EventSource> source,
                            const MuxClientOptions& options) {
  ODBGC_CHECK(source != nullptr);
  ODBGC_CHECK(options.base_chunk > 0);
  ODBGC_CHECK_MSG(events_drawn_ == 0 && !turn_active_,
                  "AddClient after the first Next()");
  Client c;
  c.offset = next_offset_;
  const uint32_t max_id = source->max_object_id();
  // In 64 bits: max_id + 1 wraps to 0 in 32 when max_id == UINT32_MAX.
  ODBGC_CHECK_MSG(uint64_t{next_offset_} + max_id + 1 <=
                      std::numeric_limits<uint32_t>::max(),
                  "client id ranges overflow the 32-bit id space");
  next_offset_ += max_id + 1;
  c.source = std::move(source);
  c.rng = Rng(options.seed);
  c.options = options;
  clients_.push_back(std::move(c));
  ++alive_;
  return clients_.size() - 1;
}

size_t ClientMux::AddClient(std::shared_ptr<const Trace> trace,
                            const MuxClientOptions& options) {
  ODBGC_CHECK(trace != nullptr);
  const uint32_t max_id = MaxObjectId(*trace);
  return AddClient(
      std::make_unique<TraceCursorSource>(std::move(trace), max_id),
      options);
}

void ClientMux::SetAdmissionGate(AdmissionGate gate, uint32_t defer_limit) {
  gate_ = std::move(gate);
  defer_limit_ = defer_limit;
  if (!gate_) {
    for (Client& c : clients_) c.defer_streak = 0;
  }
}

void ClientMux::GenerateTurn(Client& c) {
  ODBGC_CHECK(!c.dry);
  Turn t;
  uint32_t budget = c.options.base_chunk;
  if (c.options.chunk_jitter > 0) {
    budget += static_cast<uint32_t>(
        c.rng.NextBelow(c.options.chunk_jitter + 1));
  }
  TraceEvent e;
  for (;;) {
    if (!c.source->Next(&e)) {
      // A source may not run dry mid create->link window (its own
      // stream always links what it creates), so no pending state needs
      // unwinding. The turn ends here with no think draw.
      t.exhausted = true;
      c.dry = true;
      break;
    }
    // Safe-point tracking in source-local ids: the remap is a shift of
    // nonzero ids, so comparisons agree with the remapped stream's.
    if (e.kind == EventKind::kCreate) {
      c.pending_unlinked = e.a;
    } else if (c.pending_unlinked != 0 &&
               ((e.kind == EventKind::kWriteRef &&
                 e.c == c.pending_unlinked) ||
                (e.kind == EventKind::kAddRoot &&
                 e.a == c.pending_unlinked))) {
      c.pending_unlinked = 0;
    }
    if (IsShareEligible(e)) ++t.eligible;
    c.events.push_back(e);
    ++t.length;
    if (budget > 0) --budget;
    if (budget == 0 && c.pending_unlinked == 0) {
      if (c.options.think_time > 0) {
        t.rest =
            static_cast<uint32_t>(c.rng.NextBelow(c.options.think_time + 1));
      }
      break;
    }
  }
  c.turns.push_back(t);
}

void ClientMux::Compact(Client& c) {
  c.events.erase(c.events.begin(), c.events.begin() + c.next);
  c.next = 0;
  c.turns.erase(c.turns.begin(), c.turns.begin() + c.turn_head);
  c.turn_head = 0;
}

void ClientMux::Refill(size_t client, uint32_t max_events) {
  Client& c = clients_[client];
  // c.next counts the events scheduled since the last Refill.
  const size_t target = std::min<size_t>(2 * size_t{c.next}, max_events);
  Compact(c);
  while (!c.dry && (c.turns.empty() || c.events.size() < target)) {
    GenerateTurn(c);
  }
}

bool ClientMux::StartTurn() {
  // Round-robin from cursor_; a pass that finds only sleeping clients
  // fast-forwards round_ to the earliest wake-up instead of spinning.
  while (alive_ > 0) {
    uint64_t earliest_wake = std::numeric_limits<uint64_t>::max();
    const size_t n = clients_.size();
    for (size_t scanned = 0; scanned < n; ++scanned) {
      if (cursor_ >= n) {
        cursor_ = 0;
        ++round_;
      }
      const size_t idx = cursor_++;
      Client& c = clients_[idx];
      if (c.exhausted) continue;
      if (c.sleep_until_round > round_) {
        if (c.sleep_until_round < earliest_wake) {
          earliest_wake = c.sleep_until_round;
        }
        continue;
      }
      // Admission gate: a deferred client sits this round out, exactly
      // like think time. The valve admits after defer_limit_ consecutive
      // deferrals so a persistently red gate throttles rather than
      // starves.
      if (gate_ && gate_(static_cast<uint32_t>(idx)) &&
          (defer_limit_ == 0 || c.defer_streak < defer_limit_)) {
        ++c.defer_streak;
        ++admission_deferrals_;
        c.sleep_until_round = round_ + 1;
        if (c.sleep_until_round < earliest_wake) {
          earliest_wake = c.sleep_until_round;
        }
        continue;
      }
      c.defer_streak = 0;
      // Found a turn: load it, generating it here if the buffer ran
      // short.
      if (c.turn_head == c.turns.size()) GenerateTurn(c);
      turn_ = c.turns[c.turn_head++];
      current_ = idx;
      turn_active_ = true;
      return true;
    }
    // Every alive client is thinking: jump time forward.
    if (earliest_wake == std::numeric_limits<uint64_t>::max()) {
      return false;  // defensive; alive_ should have been 0
    }
    round_ = earliest_wake;
  }
  return false;
}

bool ClientMux::Ready() {
  while (alive_ > 0) {
    if (!turn_active_ && !StartTurn()) return false;
    if (turn_.length > 0) return true;
    // Only a turn whose source ran dry gets here (a turn that reaches
    // its safe point ends in Consume). Exhausted clients drop out of
    // the rotation for good.
    clients_[current_].exhausted = true;
    --alive_;
    turn_active_ = false;
  }
  return false;
}

void ClientMux::Consume(uint32_t take) {
  Client& c = clients_[current_];
  c.next += take;
  turn_.length -= take;
  events_drawn_ += take;
  if (turn_.length == 0 && !turn_.exhausted) {
    // Safe point: the client thinks for turn_.rest rounds.
    if (turn_.rest > 0) c.sleep_until_round = round_ + turn_.rest;
    turn_active_ = false;
  }
}

uint32_t ClientMux::Schedule(uint32_t max_events,
                             std::vector<TurnSpan>* spans,
                             uint32_t* eligible) {
  uint32_t scheduled = 0;
  uint32_t eligible_so_far = 0;
  while (scheduled < max_events && Ready()) {
    const Client& c = clients_[current_];
    const uint32_t take = std::min(turn_.length, max_events - scheduled);
    uint32_t span_eligible = turn_.eligible;
    if (take < turn_.length) {
      // The epoch cuts this turn: count the eligible events it keeps.
      span_eligible = 0;
      for (uint32_t i = c.next; i < c.next + take; ++i) {
        span_eligible += IsShareEligible(c.events[i]) ? 1 : 0;
      }
    }
    spans->push_back(TurnSpan{static_cast<uint32_t>(current_), c.next,
                              c.next + take, eligible_so_far});
    turn_.eligible -= span_eligible;
    eligible_so_far += span_eligible;
    scheduled += take;
    Consume(take);
  }
  *eligible = eligible_so_far;
  return scheduled;
}

bool ClientMux::Next(TraceEvent* out, uint32_t* client) {
  if (!Ready()) return false;
  Client& c = clients_[current_];
  *out = c.events[c.next];
  if (IsShareEligible(*out)) --turn_.eligible;
  RemapEventIds(out, c.offset);
  if (client != nullptr) *client = static_cast<uint32_t>(current_);
  Consume(1);
  // Standalone draining keeps about one turn resident per client.
  if (c.next == c.events.size()) Compact(c);
  return true;
}

size_t ClientMux::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this) + clients_.capacity() * sizeof(Client);
  for (const Client& c : clients_) {
    bytes += c.events.capacity() * sizeof(TraceEvent) +
             c.turns.capacity() * sizeof(Turn);
    if (c.source != nullptr) bytes += c.source->ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace odbgc
