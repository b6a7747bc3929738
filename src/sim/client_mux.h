#ifndef ODBGC_SIM_CLIENT_MUX_H_
#define ODBGC_SIM_CLIENT_MUX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "trace/event_source.h"
#include "util/random.h"

namespace odbgc {

// Per-client scheduling knobs for the mux. All randomness comes from the
// client's own seeded RNG, drawn in the order the client's turns are
// generated, so the merged stream is a pure function of (clients,
// options, seeds).
struct MuxClientOptions {
  // Baseline events per turn (the legacy interleaver's `chunk`).
  uint32_t base_chunk = 64;
  // Turn length becomes base_chunk + uniform[0, chunk_jitter]; 0 draws
  // no randomness (keeps the stream bit-identical to the jitter-free
  // schedule).
  uint32_t chunk_jitter = 0;
  // After a turn the client thinks for uniform[0, think_time] rounds —
  // it skips that many of its round-robin slots; 0 draws no randomness.
  uint32_t think_time = 0;
  // Seed of the client's private scheduling RNG.
  uint64_t seed = 1;
};

// Streaming multi-client composition: merges events from per-client
// EventSources into one deterministic stream, drawing lazily — the
// replacement for the materialize-everything InterleaveClients at
// fleet scale. 10,000 clients x millions of events cost O(clients)
// memory: per client the mux holds a source cursor, an id offset, an
// RNG, a short buffer of generated turns and a few counters.
//
// Semantics: deterministic round-robin in client-registration order.
// Each turn draws a chunk of events (base_chunk plus seeded jitter)
// from one client, extended past the chunk while the client's most
// recent allocation is still unlinked (the same safe-point rule as
// InterleaveClients: the store's newest-allocation pin protects exactly
// one in-flight object, so a client may not be preempted inside its
// create->link window). Think time makes a client sit out whole rounds.
// Exhausted clients drop out. Id remapping is an arithmetic offset per
// client (RemapEventIds), assigning each client the disjoint range
// [offset, offset + max_object_id] exactly as the legacy path did.
//
// Two layers. Everything that shapes one client's turns — its jitter
// and think-time draws, the safe-point extension, running dry mid-turn
// — depends on that client alone, so turns are generated client-locally
// into the client's buffer (Refill, GenerateTurn) in source-local ids.
// The serial scheduler only picks whose turn is next: round-robin,
// think-time sleep and the admission gate. It starts a turn only when
// an event is needed, so gate calls and events_drawn() land at the
// same points however the stream is consumed. A source that runs dry
// exactly at a turn boundary is found by a zero-length turn, which
// still passes the admission gate.
//
// Consumers either pull one event at a time (Next) or take whole turn
// spans (Schedule) and read the events from the owner's buffer — the
// sharded engine does the latter so its shard workers can remap, route,
// apply and refill their own clients in parallel. Both views give the
// same merged stream, byte-identical however the consumer batches its
// calls. With zero jitter and zero think time it reproduces
// InterleaveClients(clients, chunk) event for event.
class ClientMux {
 public:
  // A run of consecutive events of one client's turn:
  // buffered_events(client)[begin, end). eligible_base is the number of
  // share-eligible events (IsShareEligible) that precede the span within
  // its Schedule call, so each eligible event knows its ordinal in the
  // merged order.
  struct TurnSpan {
    uint32_t client = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t eligible_base = 0;
  };

  ClientMux() = default;
  ClientMux(const ClientMux&) = delete;
  ClientMux& operator=(const ClientMux&) = delete;

  // Registers a client; draws come in registration order. Returns the
  // client's index. All registration must happen before the first
  // Next() or Schedule() call.
  size_t AddClient(std::unique_ptr<EventSource> source,
                   const MuxClientOptions& options);

  // Convenience: replay a (typically cache-shared) trace. Computes the
  // trace's max id once here; use the EventSource overload with a
  // precomputed TraceCursorSource to share that scan across clients.
  size_t AddClient(std::shared_ptr<const Trace> trace,
                   const MuxClientOptions& options);

  // Draws the next merged event, remapped to the client's global id
  // range. Returns false when every client is exhausted. When `client`
  // is non-null it receives the index of the client that produced the
  // event.
  bool Next(TraceEvent* out, uint32_t* client = nullptr);

  // Schedules up to `max_events` further events of the merged stream as
  // turn spans appended to *spans, and returns how many it scheduled
  // (fewer only once every client is exhausted). *eligible receives the
  // number of share-eligible events among them. The spanned events stay
  // in the clients' buffers, in source-local ids, until the owner's
  // next Refill; a turn cut by max_events resumes in the next call.
  uint32_t Schedule(uint32_t max_events, std::vector<TurnSpan>* spans,
                    uint32_t* eligible);

  // The events buffered for `client`, indexed by TurnSpan::begin/end.
  // Valid until the client's next Refill or Schedule/Next call.
  const TraceEvent* buffered_events(size_t client) const {
    return clients_[client].events.data();
  }

  // Drops the client's scheduled events and tops its buffer up with
  // whole generated turns: at least one unstarted turn, and up to
  // min(max_events, 2 x the events scheduled since the last Refill)
  // unscheduled events, until its source runs dry. A turn the scheduler
  // needs before it is buffered is generated serially instead. Touches
  // only this client's state, so distinct clients may be refilled
  // concurrently — but never concurrently with Next/Schedule, and not
  // while spans into this client's buffer are still being read. How
  // much is buffered changes speed and memory, never the stream.
  void Refill(size_t client, uint32_t max_events);

  // The events the engine may redirect at a shared catalog object:
  // pointer writes with a null target.
  static bool IsShareEligible(const TraceEvent& e) {
    return e.kind == EventKind::kWriteRef && e.c == 0;
  }

  // Admission backpressure. When a gate is installed, StartTurn consults
  // it at each turn boundary (the same safe points that bound create->
  // link windows): a gate returning true defers the client's whole turn
  // by one round instead of admitting it. A per-client valve admits
  // unconditionally after `defer_limit` consecutive deferrals, so
  // admission can never starve the collections that need events applied
  // to make progress. The gate MUST be a deterministic function of
  // (client, state updated only between Next()/Schedule() calls) — the
  // merged stream stays a pure function of registration order, options
  // and the gate's decisions, byte-identical across consumers and
  // thread counts. Passing a null gate uninstalls it. defer_limit == 0
  // disables the valve — then the caller must guarantee the gate
  // eventually admits, or a universally-deferred fleet spins forever.
  using AdmissionGate = std::function<bool(uint32_t client)>;
  void SetAdmissionGate(AdmissionGate gate, uint32_t defer_limit);
  // Total turns deferred by the gate since construction.
  uint64_t admission_deferrals() const { return admission_deferrals_; }

  size_t clients() const { return clients_.size(); }
  size_t alive() const { return alive_; }
  uint64_t events_drawn() const { return events_drawn_; }
  // The id offset assigned to client `c` (its ids occupy
  // [offset + 1, offset + max_object_id]).
  uint32_t client_offset(size_t c) const { return clients_[c].offset; }
  // One past the largest id any registered client can emit.
  uint32_t id_limit() const { return next_offset_; }

  // Resident bytes of the mux itself, its turn buffers, and every
  // client's source state (shared cached traces excluded; see
  // EventSource::ApproxMemoryBytes).
  size_t ApproxMemoryBytes() const;

 private:
  // One generated turn: its event count, the think-time rounds drawn at
  // its end, its share-eligible events, and whether the source ran dry
  // inside it (such a turn ends with no think draw, and the client is
  // retired once the scheduler reaches its end).
  struct Turn {
    uint32_t length = 0;
    uint32_t rest = 0;
    uint32_t eligible = 0;
    bool exhausted = false;
  };

  struct Client {
    std::unique_ptr<EventSource> source;
    uint32_t offset = 0;
    Rng rng{1};
    MuxClientOptions options;
    // Generation state, client-local.
    std::vector<TraceEvent> events;  // buffered, source-local ids
    std::vector<Turn> turns;         // generated turns, oldest first
    uint32_t next = 0;               // first unscheduled index in events
    uint32_t turn_head = 0;          // first unstarted index in turns
    uint32_t pending_unlinked = 0;   // local id of an unlinked create
    bool dry = false;                // the source's last turn is queued
    // Scheduling state, serial.
    uint64_t sleep_until_round = 0;
    uint32_t defer_streak = 0;       // consecutive gate deferrals
    bool exhausted = false;
  };

  // Appends the client's next turn to its buffer.
  static void GenerateTurn(Client& c);
  // Drops the client's scheduled events and started turns.
  static void Compact(Client& c);
  // Picks the next client with an eligible turn (round-robin from
  // cursor_, fast-forwarding rounds past universal think time) and
  // loads its next turn. Returns false when no client remains.
  bool StartTurn();
  // Makes the active turn one with an event left to hand out, starting
  // turns and retiring clients whose source ran dry as needed. Returns
  // false when every client is exhausted.
  bool Ready();
  // Hands out `take` events of the active turn, ending the turn at its
  // safe point.
  void Consume(uint32_t take);

  std::vector<Client> clients_;
  size_t alive_ = 0;
  uint64_t events_drawn_ = 0;
  uint32_t next_offset_ = 0;

  // Admission backpressure (null = admit everything).
  AdmissionGate gate_;
  uint32_t defer_limit_ = 0;
  uint64_t admission_deferrals_ = 0;

  // Active turn: its length and eligible count what is not yet handed
  // out; its next event is clients_[current_].events[next].
  bool turn_active_ = false;
  Turn turn_;
  size_t current_ = 0;  // client owning the active turn
  size_t cursor_ = 0;   // next client index to consider
  uint64_t round_ = 0;  // completed round-robin passes
};

}  // namespace odbgc

#endif  // ODBGC_SIM_CLIENT_MUX_H_
