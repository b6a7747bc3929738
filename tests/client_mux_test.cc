#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "oo7/generator.h"
#include "sim/client_mux.h"
#include "sim/multi_client.h"
#include "storage/reachability.h"
#include "tests/replay_test_util.h"
#include "util/random.h"
#include "workloads/streaming.h"
#include "workloads/synthetic.h"

namespace odbgc {
namespace {

Trace TinyOo7(uint64_t seed) {
  Oo7Generator gen(Oo7Params::Tiny(), seed);
  return gen.GenerateFullApplication();
}

Trace SmallChurn(uint64_t seed) {
  UniformChurnOptions o;
  o.seed = seed;
  o.cycles = 1500;
  o.list_count = 8;
  o.target_length = 16;
  return MakeUniformChurn(o);
}

// Drains a mux to exhaustion into a materialized trace.
Trace Drain(ClientMux& mux) {
  Trace out;
  TraceEvent e;
  while (mux.Next(&e)) out.Append(e);
  return out;
}

TEST(ClientMuxTest, JitterFreeStreamMatchesInterleaveClients) {
  for (uint32_t chunk : {1u, 17u, 50u}) {
    Trace a = TinyOo7(1);
    Trace b = SmallChurn(2);
    Trace legacy = InterleaveClients({a, b}, chunk);

    ClientMux mux;
    MuxClientOptions opts;
    opts.base_chunk = chunk;
    mux.AddClient(std::make_shared<Trace>(a), opts);
    mux.AddClient(std::make_shared<Trace>(b), opts);
    Trace streamed = Drain(mux);

    ASSERT_EQ(streamed.size(), legacy.size()) << "chunk=" << chunk;
    for (size_t i = 0; i < legacy.size(); ++i) {
      ASSERT_EQ(streamed[i], legacy[i]) << "chunk=" << chunk << " i=" << i;
    }
  }
}

TEST(ClientMuxTest, SingleClientIsRawTrace) {
  Trace a = SmallChurn(3);
  ClientMux mux;
  mux.AddClient(std::make_shared<Trace>(a), MuxClientOptions{});
  Trace streamed = Drain(mux);
  ASSERT_EQ(streamed.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(streamed[i], a[i]);
}

TEST(ClientMuxTest, StreamIndependentOfConsumerPullPattern) {
  // The merged stream must not depend on how the consumer batches its
  // pulls. Build the same two-mux fleet twice (with jitter and think
  // time, so every RNG path is live) and draw one in singles, the other
  // in ragged batches interleaved with client-state peeks.
  auto build = [] {
    auto mux = std::make_unique<ClientMux>();
    MuxClientOptions opts;
    opts.base_chunk = 13;
    opts.chunk_jitter = 9;
    opts.think_time = 3;
    opts.seed = 77;
    mux->AddClient(std::make_shared<Trace>(TinyOo7(4)), opts);
    opts.seed = 78;
    mux->AddClient(std::make_shared<Trace>(SmallChurn(5)), opts);
    opts.seed = 79;
    mux->AddClient(std::make_shared<Trace>(SmallChurn(6)), opts);
    return mux;
  };
  auto ones = build();
  Trace singles = Drain(*ones);

  auto batched = build();
  Trace ragged;
  TraceEvent e;
  size_t batch = 1;
  bool done = false;
  while (!done) {
    for (size_t i = 0; i < batch; ++i) {
      if (!batched->Next(&e)) {
        done = true;
        break;
      }
      ragged.Append(e);
    }
    (void)batched->alive();  // interleaved observation must be inert
    batch = (batch % 97) + 3;
  }
  ASSERT_EQ(ragged.size(), singles.size());
  for (size_t i = 0; i < singles.size(); ++i) {
    ASSERT_EQ(ragged[i], singles[i]) << "i=" << i;
  }
}

TEST(ClientMuxTest, ExhaustedClientsDropOutAndStreamStaysComplete) {
  Trace longer = SmallChurn(7);
  Trace shorter;
  shorter.Append(CreateEvent(1, 64, 0));
  shorter.Append(AddRootEvent(1));
  shorter.Append(ReadEvent(1));

  ClientMux mux;
  MuxClientOptions opts;
  opts.base_chunk = 2;
  mux.AddClient(std::make_shared<Trace>(longer), opts);
  mux.AddClient(std::make_shared<Trace>(shorter), opts);
  EXPECT_EQ(mux.alive(), 2u);

  Trace streamed = Drain(mux);
  EXPECT_EQ(mux.alive(), 0u);
  ASSERT_EQ(streamed.size(), longer.size() + shorter.size());
  // Once the short client runs dry the tail is purely the long client's
  // remapped suffix, in order.
  Trace longer_remapped = RemapObjectIds(longer, mux.client_offset(0));
  const size_t tail = streamed.size() - 8;
  size_t li = longer.size() - (streamed.size() - tail);
  for (size_t i = tail; i < streamed.size(); ++i, ++li) {
    EXPECT_EQ(streamed[i], longer_remapped[li]);
  }
}

TEST(ClientMuxTest, MergedStreamKeepsGroundTruthConsistent) {
  // Safe-point rule under scheduling randomness: a bare replay of the
  // merged stream must keep the garbage oracle equal to a full
  // reachability scan at quiescence.
  ClientMux mux;
  MuxClientOptions opts;
  opts.base_chunk = 5;
  opts.chunk_jitter = 11;
  opts.think_time = 2;
  opts.seed = 99;
  mux.AddClient(std::make_shared<Trace>(TinyOo7(8)), opts);
  mux.AddClient(std::make_shared<Trace>(SmallChurn(9)), opts);
  Trace mix = Drain(mux);

  StoreConfig cfg;
  cfg.partition_bytes = 16 * 1024;
  cfg.page_bytes = 2 * 1024;
  cfg.buffer_pages = 8;
  ObjectStore store(cfg);
  ReplayIntoStore(mix, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
}

TEST(ClientMuxTest, StreamingChurnReplayMatchesGroundTruth) {
  StreamingChurnOptions o;
  o.seed = 11;
  o.cycles = 800;
  o.read_factor = 2;
  ClientMux mux;
  mux.AddClient(std::make_unique<StreamingChurnSource>(o),
                MuxClientOptions{});
  Trace t = Drain(mux);
  EXPECT_GT(t.size(), o.cycles * 3);

  StoreConfig cfg;
  cfg.partition_bytes = 16 * 1024;
  cfg.page_bytes = 2 * 1024;
  cfg.buffer_pages = 8;
  ObjectStore store(cfg);
  ReplayIntoStore(t, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
}

TEST(ClientMuxTest, TenThousandClientsStreamInClientBoundedMemory) {
  // 10,000 generator-backed clients whose *total* event volume would be
  // far larger than their resident state. The mux + sources must cost
  // O(clients), independent of how many events remain undrawn.
  constexpr size_t kClients = 10000;
  ClientMux mux;
  for (size_t c = 0; c < kClients; ++c) {
    StreamingChurnOptions o;
    o.seed = 1000 + c;
    o.cycles = 2000;       // ~16k+ events per client if fully drained
    o.read_factor = 1;
    MuxClientOptions m;
    m.base_chunk = 8;
    m.chunk_jitter = 7;
    m.seed = 5000 + c;
    mux.AddClient(std::make_unique<StreamingChurnSource>(o), m);
  }
  // Draw a slice off the top; the fleet's undrawn remainder is ~200M
  // events (~4 GB if materialized the legacy way).
  TraceEvent e;
  for (size_t i = 0; i < 500000; ++i) ASSERT_TRUE(mux.Next(&e));
  // Resident accounting stays in tens of MB: a few KB per client.
  EXPECT_LT(mux.ApproxMemoryBytes(), 100u * 1024 * 1024);
  EXPECT_EQ(mux.clients(), kClients);
  EXPECT_EQ(mux.alive(), kClients);
}

TEST(ClientMuxTest, SourceMemoryIsIndependentOfRemainingEvents) {
  // Same client parameters except total cycles: resident state tracks
  // the bounded live lists, not the event horizon.
  StreamingChurnOptions small;
  small.cycles = 200;
  StreamingChurnOptions large = small;
  large.cycles = 20000;
  StreamingChurnSource a(small);
  StreamingChurnSource b(large);
  TraceEvent e;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(a.Next(&e));
    ASSERT_TRUE(b.Next(&e));
  }
  // Identical prefix behavior -> identical resident state; allow slack
  // for deque block granularity.
  EXPECT_LT(b.ApproxMemoryBytes(), 2 * a.ApproxMemoryBytes());
}

TEST(ClientMuxAdmissionTest, GateDefersWithoutLosingEvents) {
  // A permanently hostile gate against one client: the defer valve must
  // keep admitting it every `defer_limit` rounds, so the merged stream
  // still carries every event of every client.
  Trace a = SmallChurn(21);
  Trace b = SmallChurn(22);
  ClientMux gated;
  gated.AddClient(std::make_shared<Trace>(a), MuxClientOptions{});
  gated.AddClient(std::make_shared<Trace>(b), MuxClientOptions{});
  gated.SetAdmissionGate([](uint32_t client) { return client == 1; },
                         /*defer_limit=*/2);
  Trace streamed = Drain(gated);
  EXPECT_EQ(streamed.size(), a.size() + b.size());
  EXPECT_GT(gated.admission_deferrals(), 0u);
}

TEST(ClientMuxAdmissionTest, GatedStreamIndependentOfPullPattern) {
  // The backpressure path must preserve the mux's core contract: the
  // merged stream is a function of client state only, not of how the
  // consumer batches its pulls.
  auto build = [] {
    auto mux = std::make_unique<ClientMux>();
    MuxClientOptions opts;
    opts.base_chunk = 13;
    opts.chunk_jitter = 9;
    opts.think_time = 3;
    opts.seed = 81;
    mux->AddClient(std::make_shared<Trace>(SmallChurn(23)), opts);
    opts.seed = 82;
    mux->AddClient(std::make_shared<Trace>(SmallChurn(24)), opts);
    opts.seed = 83;
    mux->AddClient(std::make_shared<Trace>(TinyOo7(25)), opts);
    mux->SetAdmissionGate([](uint32_t client) { return client != 0; },
                          /*defer_limit=*/3);
    return mux;
  };
  auto ones = build();
  Trace singles = Drain(*ones);

  auto batched = build();
  Trace ragged;
  TraceEvent e;
  size_t batch = 1;
  bool done = false;
  while (!done) {
    for (size_t i = 0; i < batch; ++i) {
      if (!batched->Next(&e)) {
        done = true;
        break;
      }
      ragged.Append(e);
    }
    batch = (batch % 7) + 1;
  }
  ASSERT_EQ(singles.size(), ragged.size());
  for (size_t i = 0; i < singles.size(); ++i) {
    ASSERT_EQ(singles[i], ragged[i]) << "i=" << i;
  }
  EXPECT_EQ(ones->admission_deferrals(), batched->admission_deferrals());
}

TEST(ClientMuxAdmissionTest, UninstallingGateRestoresUngatedStream) {
  // Installing and immediately uninstalling a gate before the first
  // draw must leave the schedule untouched.
  Trace a = SmallChurn(26);
  Trace b = SmallChurn(27);
  auto run = [&](bool install) {
    ClientMux mux;
    mux.AddClient(std::make_shared<Trace>(a), MuxClientOptions{});
    mux.AddClient(std::make_shared<Trace>(b), MuxClientOptions{});
    if (install) {
      mux.SetAdmissionGate([](uint32_t) { return true; }, 2);
      mux.SetAdmissionGate(nullptr, 0);
    }
    return Drain(mux);
  };
  Trace plain = run(false);
  Trace cycled = run(true);
  ASSERT_EQ(plain.size(), cycled.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i], cycled[i]) << "i=" << i;
  }
}

TEST(ClientMuxTest, RegistrationAfterFirstDrawIsRejected) {
  ClientMux mux;
  mux.AddClient(std::make_shared<Trace>(SmallChurn(12)),
                MuxClientOptions{});
  TraceEvent e;
  ASSERT_TRUE(mux.Next(&e));
  EXPECT_DEATH(mux.AddClient(std::make_shared<Trace>(SmallChurn(13)),
                             MuxClientOptions{}),
               "AddClient after the first Next");
}

// A source that claims an id range and emits nothing.
class IdRangeSource : public EventSource {
 public:
  explicit IdRangeSource(uint32_t max_id) : max_id_(max_id) {}
  bool Next(TraceEvent*) override { return false; }
  uint32_t max_object_id() const override { return max_id_; }

 private:
  uint32_t max_id_;
};

TEST(ClientMuxTest, IdRangeOverflowIsRejected) {
  // max_id + 1 wraps to 0 in 32 bits; the range check must not.
  EXPECT_DEATH(
      {
        ClientMux mux;
        mux.AddClient(std::make_unique<IdRangeSource>(UINT32_MAX),
                      MuxClientOptions{});
      },
      "client id ranges overflow");
  // The last representable range fits; one more id does not.
  EXPECT_DEATH(
      {
        ClientMux mux;
        mux.AddClient(std::make_unique<IdRangeSource>(UINT32_MAX - 1),
                      MuxClientOptions{});
        mux.AddClient(std::make_unique<IdRangeSource>(0),
                      MuxClientOptions{});
      },
      "client id ranges overflow");
  ClientMux mux;
  mux.AddClient(std::make_unique<IdRangeSource>(UINT32_MAX - 1),
                MuxClientOptions{});
  EXPECT_EQ(mux.id_limit(), UINT32_MAX);
}

// ---------------------------------------------------------------------
// Differential test against the per-event mux that the turn scheduler
// replaced, kept here as the oracle. It draws a turn's jitter when the
// turn starts and its think time when it ends, pulling events from the
// client's source one at a time.
class ReferenceMux {
 public:
  void AddClient(std::unique_ptr<EventSource> source,
                 const MuxClientOptions& options) {
    Client c;
    c.offset = next_offset_;
    next_offset_ += source->max_object_id() + 1;
    c.source = std::move(source);
    c.rng = Rng(options.seed);
    c.options = options;
    clients_.push_back(std::move(c));
    ++alive_;
  }

  void SetAdmissionGate(ClientMux::AdmissionGate gate,
                        uint32_t defer_limit) {
    gate_ = std::move(gate);
    defer_limit_ = defer_limit;
  }

  bool Next(TraceEvent* out, uint32_t* client) {
    while (alive_ > 0) {
      if (!turn_active_ && !StartTurn()) return false;
      Client& c = clients_[current_];
      TraceEvent e;
      if (!c.source->Next(&e)) {
        c.exhausted = true;
        --alive_;
        EndTurn();
        continue;
      }
      RemapEventIds(&e, c.offset);
      if (e.kind == EventKind::kCreate) {
        c.pending_unlinked = e.a;
      } else if (c.pending_unlinked != 0 &&
                 ((e.kind == EventKind::kWriteRef &&
                   e.c == c.pending_unlinked) ||
                  (e.kind == EventKind::kAddRoot &&
                   e.a == c.pending_unlinked))) {
        c.pending_unlinked = 0;
      }
      if (turn_budget_ > 0) --turn_budget_;
      if (turn_budget_ == 0 && c.pending_unlinked == 0) EndTurn();
      ++events_drawn_;
      *out = e;
      *client = static_cast<uint32_t>(current_);
      return true;
    }
    return false;
  }

  uint64_t admission_deferrals() const { return admission_deferrals_; }
  uint64_t events_drawn() const { return events_drawn_; }

 private:
  struct Client {
    std::unique_ptr<EventSource> source;
    uint32_t offset = 0;
    Rng rng{1};
    MuxClientOptions options;
    uint64_t sleep_until_round = 0;
    uint32_t pending_unlinked = 0;
    uint32_t defer_streak = 0;
    bool exhausted = false;
  };

  bool StartTurn() {
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
          earliest_wake = std::min(earliest_wake, c.sleep_until_round);
          continue;
        }
        if (gate_ && gate_(static_cast<uint32_t>(idx)) &&
            (defer_limit_ == 0 || c.defer_streak < defer_limit_)) {
          ++c.defer_streak;
          ++admission_deferrals_;
          c.sleep_until_round = round_ + 1;
          earliest_wake = std::min(earliest_wake, c.sleep_until_round);
          continue;
        }
        c.defer_streak = 0;
        current_ = idx;
        turn_budget_ = c.options.base_chunk;
        if (c.options.chunk_jitter > 0) {
          turn_budget_ += static_cast<uint32_t>(
              c.rng.NextBelow(c.options.chunk_jitter + 1));
        }
        turn_active_ = true;
        return true;
      }
      if (earliest_wake == std::numeric_limits<uint64_t>::max()) {
        return false;
      }
      round_ = earliest_wake;
    }
    return false;
  }

  void EndTurn() {
    Client& c = clients_[current_];
    if (!c.exhausted && c.options.think_time > 0) {
      const uint64_t rest = c.rng.NextBelow(c.options.think_time + 1);
      if (rest > 0) c.sleep_until_round = round_ + 1 + (rest - 1);
    }
    turn_active_ = false;
    turn_budget_ = 0;
  }

  std::vector<Client> clients_;
  size_t alive_ = 0;
  uint64_t events_drawn_ = 0;
  uint32_t next_offset_ = 0;
  ClientMux::AdmissionGate gate_;
  uint32_t defer_limit_ = 0;
  uint64_t admission_deferrals_ = 0;
  bool turn_active_ = false;
  size_t current_ = 0;
  uint32_t turn_budget_ = 0;
  size_t cursor_ = 0;
  uint64_t round_ = 0;
};

enum class DiffSource { kChurn, kOo7, kEmpty, kOneEvent, kDryAtBoundary };

struct DiffClient {
  DiffSource kind = DiffSource::kChurn;
  MuxClientOptions options;
  uint64_t seed = 1;
  uint32_t length = 0;  // churn cycles, or turns of a boundary source
};

struct DiffConfig {
  std::vector<DiffClient> clients;
  bool gated = false;
  uint32_t defer_limit = 0;
  uint64_t gate_seed = 0;
};

DiffConfig DrawConfig(uint64_t seed) {
  Rng rng(seed);
  DiffConfig cfg;
  const size_t n = 1 + rng.NextBelow(64);
  bool has_oo7 = false;
  for (size_t i = 0; i < n; ++i) {
    DiffClient d;
    d.options.base_chunk = 1 + static_cast<uint32_t>(rng.NextBelow(64));
    d.options.chunk_jitter = static_cast<uint32_t>(rng.NextBelow(33));
    d.options.think_time = static_cast<uint32_t>(rng.NextBelow(7));
    d.options.seed = rng.Next();
    d.seed = rng.Next();
    const uint64_t pick = rng.NextBelow(16);
    if (pick == 0 && !has_oo7) {
      d.kind = DiffSource::kOo7;  // at most one long replay per fleet
      has_oo7 = true;
    } else if (pick == 1) {
      d.kind = DiffSource::kEmpty;
    } else if (pick == 2) {
      d.kind = DiffSource::kOneEvent;
    } else if (pick <= 5) {
      // Jitter-free, link-free turns of exactly base_chunk events, so
      // the source runs dry exactly at a turn boundary.
      d.kind = DiffSource::kDryAtBoundary;
      d.options.chunk_jitter = 0;
      d.length = static_cast<uint32_t>(rng.NextBelow(5));
    } else {
      d.kind = DiffSource::kChurn;
      d.length = static_cast<uint32_t>(rng.NextBelow(40));
    }
    cfg.clients.push_back(d);
  }
  cfg.gated = rng.NextBelow(2) == 0;
  cfg.defer_limit = static_cast<uint32_t>(rng.NextBelow(5));
  cfg.gate_seed = rng.Next();
  return cfg;
}

std::unique_ptr<EventSource> MakeDiffSource(
    const DiffClient& d, const std::shared_ptr<const Trace>& oo7) {
  switch (d.kind) {
    case DiffSource::kChurn: {
      StreamingChurnOptions o;
      o.seed = d.seed;
      o.cycles = d.length;
      o.list_count = 1 + static_cast<uint32_t>(d.seed % 4);
      o.target_length = 2 + static_cast<uint32_t>(d.seed % 7);
      o.read_factor = static_cast<uint32_t>(d.seed % 3);
      return std::make_unique<StreamingChurnSource>(o);
    }
    case DiffSource::kOo7:
      return std::make_unique<TraceCursorSource>(oo7, MaxObjectId(*oo7));
    case DiffSource::kEmpty:
      return std::make_unique<TraceCursorSource>(
          std::make_shared<const Trace>(), 0);
    case DiffSource::kOneEvent: {
      // A lone unlinked create keeps its turn open until the source
      // runs dry; a lone read ends it at once.
      auto t = std::make_shared<Trace>();
      t->Append(d.seed % 2 == 0 ? CreateEvent(1, 64, 0) : ReadEvent(1));
      return std::make_unique<TraceCursorSource>(std::move(t), 1);
    }
    case DiffSource::kDryAtBoundary: {
      auto t = std::make_shared<Trace>();
      for (uint32_t i = 0; i < d.length * d.options.base_chunk; ++i) {
        t->Append(ReadEvent(1 + i % 5));
      }
      return std::make_unique<TraceCursorSource>(std::move(t), 5);
    }
  }
  return nullptr;
}

uint64_t MixGate(uint64_t seed, uint64_t client, uint64_t call) {
  uint64_t z = seed ^ (client * 0x9e3779b97f4a7c15ull) ^
               (call * 0xbf58476d1ce4e5b9ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Everything observable about one drain of a fleet.
struct DrainLog {
  std::vector<TraceEvent> events;
  std::vector<uint32_t> clients;
  // (client, events_drawn()) at every admission-gate call.
  std::vector<std::pair<uint32_t, uint64_t>> gate_calls;
  uint64_t deferrals = 0;
  uint64_t drawn = 0;
};

// A deterministic gate: defers about a third of calls, keyed on the
// client and the call's index, and logs every call.
template <typename Mux>
ClientMux::AdmissionGate LoggingGate(uint64_t seed, const Mux* mux,
                                     DrainLog* log) {
  return [seed, mux, log](uint32_t client) {
    const uint64_t call = log->gate_calls.size();
    log->gate_calls.emplace_back(client, mux->events_drawn());
    return MixGate(seed, client, call) % 3 == 0;
  };
}

template <typename Mux>
void Populate(Mux& mux, const DiffConfig& cfg,
              const std::shared_ptr<const Trace>& oo7, DrainLog* log) {
  for (const DiffClient& d : cfg.clients) {
    mux.AddClient(MakeDiffSource(d, oo7), d.options);
  }
  if (cfg.gated) {
    mux.SetAdmissionGate(LoggingGate(cfg.gate_seed, &mux, log),
                         cfg.defer_limit);
  }
}

// Drains one event at a time through Next().
template <typename Mux>
DrainLog DrainNext(const DiffConfig& cfg,
                   const std::shared_ptr<const Trace>& oo7) {
  DrainLog log;
  Mux mux;
  Populate(mux, cfg, oo7, &log);
  TraceEvent e;
  uint32_t client = 0;
  while (mux.Next(&e, &client)) {
    log.events.push_back(e);
    log.clients.push_back(client);
  }
  log.deferrals = mux.admission_deferrals();
  log.drawn = mux.events_drawn();
  return log;
}

// Drains through Schedule() at random epoch sizes, refilling the
// scheduled clients with random lookahead caps between epochs, the way
// the sharded engine does.
DrainLog DrainSpans(const DiffConfig& cfg,
                    const std::shared_ptr<const Trace>& oo7,
                    uint64_t seed) {
  DrainLog log;
  ClientMux mux;
  Populate(mux, cfg, oo7, &log);
  Rng rng(seed);
  for (size_t c = 0; c < mux.clients(); ++c) {
    mux.Refill(c, static_cast<uint32_t>(rng.NextBelow(200)));
  }
  std::vector<ClientMux::TurnSpan> spans;
  for (;;) {
    const uint32_t epoch = 1 + static_cast<uint32_t>(rng.NextBelow(300));
    spans.clear();
    uint32_t eligible = 0;
    const uint32_t scheduled = mux.Schedule(epoch, &spans, &eligible);
    uint32_t seen = 0;
    uint32_t seen_eligible = 0;
    for (const ClientMux::TurnSpan& span : spans) {
      EXPECT_EQ(span.eligible_base, seen_eligible);
      const TraceEvent* events = mux.buffered_events(span.client);
      for (uint32_t i = span.begin; i < span.end; ++i) {
        TraceEvent e = events[i];
        if (ClientMux::IsShareEligible(e)) ++seen_eligible;
        RemapEventIds(&e, mux.client_offset(span.client));
        log.events.push_back(e);
        log.clients.push_back(span.client);
      }
      seen += span.end - span.begin;
    }
    EXPECT_EQ(seen, scheduled);
    EXPECT_EQ(seen_eligible, eligible);
    for (const ClientMux::TurnSpan& span : spans) {
      mux.Refill(span.client, static_cast<uint32_t>(rng.NextBelow(200)));
    }
    if (scheduled < epoch) break;
  }
  log.deferrals = mux.admission_deferrals();
  log.drawn = mux.events_drawn();
  return log;
}

void ExpectSameDrain(const DrainLog& want, const DrainLog& got,
                     const char* how, uint64_t seed) {
  ASSERT_EQ(got.events.size(), want.events.size())
      << how << " config " << seed;
  for (size_t i = 0; i < want.events.size(); ++i) {
    ASSERT_EQ(got.events[i], want.events[i])
        << how << " config " << seed << " event " << i;
    ASSERT_EQ(got.clients[i], want.clients[i])
        << how << " config " << seed << " event " << i;
  }
  EXPECT_EQ(got.gate_calls, want.gate_calls) << how << " config " << seed;
  EXPECT_EQ(got.deferrals, want.deferrals) << how << " config " << seed;
  EXPECT_EQ(got.drawn, want.drawn) << how << " config " << seed;
}

TEST(ClientMuxDifferentialTest, MatchesPerEventMuxOnSeededFleets) {
  auto oo7 = std::make_shared<const Trace>(TinyOo7(31));
  uint64_t gated = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const DiffConfig cfg = DrawConfig(seed);
    const DrainLog want = DrainNext<ReferenceMux>(cfg, oo7);
    if (cfg.gated && want.deferrals > 0) ++gated;
    ExpectSameDrain(want, DrainNext<ClientMux>(cfg, oo7), "Next", seed);
    ExpectSameDrain(want, DrainSpans(cfg, oo7, seed * 7 + 3), "Schedule",
                    seed);
    if (HasFatalFailure()) return;
  }
  // The gate must actually have deferred turns in a good share of the
  // fleets, or the gate-timing comparison proves little.
  EXPECT_GT(gated, 50u);
}

}  // namespace
}  // namespace odbgc
