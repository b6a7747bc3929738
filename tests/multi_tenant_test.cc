#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "gc/collector.h"
#include "sim/multi_tenant.h"
#include "storage/reachability.h"
#include "workloads/streaming.h"

namespace odbgc {
namespace {

SimConfig ShardConfig() {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  cfg.saio_bootstrap_app_io = 200;
  cfg.preamble_collections = 2;
  return cfg;
}

MultiTenantOptions SmallFleet(uint32_t shards, int threads) {
  MultiTenantOptions opt;
  opt.num_shards = shards;
  opt.threads = threads;
  opt.epoch_events = 512;
  opt.catalog_per_shard = 3;
  opt.share_prob = 0.10;
  opt.seed = 7;
  opt.coordinator_period = 4;
  opt.shard_config = ShardConfig();
  return opt;
}

void AddChurnClients(MultiTenantEngine& engine, size_t count,
                     uint64_t cycles) {
  for (size_t c = 0; c < count; ++c) {
    StreamingChurnOptions o;
    o.seed = 100 + c;
    o.cycles = cycles;
    MuxClientOptions m;
    m.base_chunk = 16;
    m.chunk_jitter = 5;
    m.think_time = 2;
    m.seed = 300 + c;
    engine.AddClient(std::make_unique<StreamingChurnSource>(o), m);
  }
}

MultiTenantReport RunFleet(uint32_t shards, int threads, size_t clients,
                           uint64_t cycles) {
  MultiTenantEngine engine(SmallFleet(shards, threads));
  AddChurnClients(engine, clients, cycles);
  return engine.Run();
}

TEST(MultiTenantTest, ReportIsByteIdenticalAcrossThreadCounts) {
  MultiTenantReport one = RunFleet(3, 1, 9, 600);
  MultiTenantReport three = RunFleet(3, 3, 9, 600);
  MultiTenantReport eight = RunFleet(3, 8, 9, 600);

  EXPECT_EQ(one.FleetChecksum(), three.FleetChecksum());
  EXPECT_EQ(one.FleetChecksum(), eight.FleetChecksum());
  ASSERT_EQ(one.shards.size(), three.shards.size());
  for (size_t s = 0; s < one.shards.size(); ++s) {
    EXPECT_EQ(one.shards[s].clock.app_io, three.shards[s].clock.app_io);
    EXPECT_EQ(one.shards[s].clock.gc_io, three.shards[s].clock.gc_io);
    EXPECT_EQ(one.shards[s].collections, three.shards[s].collections);
    EXPECT_EQ(one.shards[s].total_reclaimed_bytes,
              three.shards[s].total_reclaimed_bytes);
  }
  EXPECT_EQ(one.coordinator_decisions.size(),
            three.coordinator_decisions.size());
}

TEST(MultiTenantTest, SharingFleetChecksumIsPinned) {
  // Long turns of short churn lists put several share-eligible
  // (null-target) writes in one turn, and share_prob 0.5 makes their
  // outcomes differ, so the pin catches a share outcome applied to the
  // wrong write. The value must be reproduced at any thread count.
  for (int threads : {1, 4}) {
    MultiTenantOptions opt = SmallFleet(3, threads);
    opt.epoch_events = 700;
    opt.catalog_per_shard = 2;
    opt.share_prob = 0.5;
    opt.seed = 11;
    opt.coordinator_period = 3;
    MultiTenantEngine engine(opt);
    for (size_t c = 0; c < 7; ++c) {
      StreamingChurnOptions o;
      o.seed = 40 + c;
      o.cycles = 400;
      o.target_length = 3;
      o.read_factor = 0;
      MuxClientOptions m;
      m.base_chunk = 48;
      m.chunk_jitter = 24;
      m.think_time = 1;
      m.seed = 90 + c;
      engine.AddClient(std::make_unique<StreamingChurnSource>(o), m);
    }
    MultiTenantReport r = engine.Run();
    EXPECT_EQ(r.events, 32133u) << "threads=" << threads;
    EXPECT_EQ(r.xshard_writes, 854u) << "threads=" << threads;
    EXPECT_EQ(r.FleetChecksum(), 11233733575516833737ull)
        << "threads=" << threads;
  }
}

TEST(MultiTenantTest, EveryClientEventIsApplied) {
  MultiTenantReport r = RunFleet(4, 2, 8, 500);
  EXPECT_EQ(r.clients, 8u);
  uint64_t shard_events = 0;
  for (const SimResult& s : r.shards) shard_events += s.clock.events;
  // Each shard additionally applied its catalog creations.
  EXPECT_EQ(shard_events, r.events + 4ull * 3ull);
  EXPECT_GT(r.epochs, 0u);
}

TEST(MultiTenantTest, CrossShardPinsBalanceAndKeepStoresConsistent) {
  MultiTenantOptions opt = SmallFleet(2, 2);
  opt.share_prob = 1.0;  // every null write becomes a shared reference
  MultiTenantEngine engine(opt);
  AddChurnClients(engine, 6, 400);
  MultiTenantReport r = engine.Run();

  EXPECT_GT(r.xshard_writes, 0u);
  EXPECT_GT(r.pins_granted, 0u);
  EXPECT_GT(r.exchange_batches, 0u);
  // Conservation: every pin still held backs a live remembered-set
  // entry; the rest were released by overwrite or source death.
  EXPECT_GE(r.pins_granted, r.pins_revoked + r.pins_reconciled);

  // Each shard's heap stays internally consistent: pinned catalog
  // objects alive, oracle == reachability at quiescence.
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const ObjectStore& store = engine.shard(s).store();
    for (uint32_t k = 1; k <= opt.catalog_per_shard; ++k) {
      EXPECT_TRUE(store.Exists(k)) << "shard " << s << " catalog " << k;
      EXPECT_TRUE(store.IsExternallyPinned(k));
    }
    ReachabilityResult scan = ScanReachability(store);
    EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes())
        << "shard " << s;
  }
}

TEST(MultiTenantTest, CoordinatorEmitsGrantsAndRevokes) {
  MultiTenantOptions opt = SmallFleet(2, 1);
  opt.coordinator_period = 2;
  opt.global_io_frac = 0.10;
  opt.min_shard_frac = 0.02;
  opt.max_shard_frac = 0.30;
  MultiTenantEngine engine(opt);
  // Unbalanced tenancy: client 0 (shard 0) churns hard, client 1
  // (shard 1) is a slow reader producing almost no garbage.
  StreamingChurnOptions hot;
  hot.seed = 1;
  hot.cycles = 1200;
  hot.target_length = 8;  // trims often -> garbage-heavy
  MuxClientOptions m;
  m.base_chunk = 32;
  engine.AddClient(std::make_unique<StreamingChurnSource>(hot), m);
  StreamingChurnOptions cold;
  cold.seed = 2;
  cold.cycles = 1200;
  cold.target_length = 1000000;  // never trims -> no garbage
  cold.read_factor = 4;
  engine.AddClient(std::make_unique<StreamingChurnSource>(cold), m);
  MultiTenantReport r = engine.Run();

  EXPECT_GT(r.budget_grants, 0u);
  EXPECT_GT(r.budget_revokes, 0u);
  ASSERT_FALSE(r.coordinator_decisions.empty());
  std::set<std::string> reasons;
  for (const obs::PolicyDecisionRecord& d : r.coordinator_decisions) {
    EXPECT_EQ(d.policy, "budget_coordinator");
    reasons.insert(obs::DecisionReasonName(d.reason));
    EXPECT_GT(d.target, 0.0);
  }
  EXPECT_TRUE(reasons.count("budget_grant"));
  EXPECT_TRUE(reasons.count("budget_revoke"));
}

TEST(MultiTenantTest, StallHistogramsMergeAcrossShards) {
  MultiTenantOptions opt = SmallFleet(2, 1);
  opt.shard_config.telemetry.enabled = true;
  MultiTenantEngine engine(opt);
  AddChurnClients(engine, 4, 600);
  MultiTenantReport r = engine.Run();
  EXPECT_EQ(r.stall_gc_copy.id, "stall.gc_copy_io");
  uint64_t per_shard = 0;
  for (const SimResult& s : r.shards) {
    for (const obs::HistogramSnapshot& h : s.telemetry.histograms) {
      if (h.id == "stall.gc_copy_io") per_shard += h.count;
    }
  }
  EXPECT_EQ(r.stall_gc_copy.count, per_shard);
}

// Governed fleet: capped shard stores with the pressure governor on,
// admission backpressure and the circuit breaker active. The defer gate
// runs in the serial drain and shard pressure only moves during the
// parallel apply phase, so the whole degradation cascade must stay
// byte-identical at any apply-lane count.
MultiTenantOptions GovernedFleet(int threads) {
  MultiTenantOptions opt = SmallFleet(2, threads);
  // Live set per shard (3 streaming-churn clients) is ~72 KB; 7
  // partitions of 16 KB put it above yellow, and garbage spikes push
  // red. Boost is disabled so shards actually reach the red watermark —
  // backpressure and the breaker both key off it — and the governor
  // checks often enough that one inter-check allocation burst cannot
  // blow through the red-to-ceiling headroom.
  opt.shard_config.store.max_db_bytes = 7 * 16 * 1024;
  opt.shard_config.governor.enabled = true;
  opt.shard_config.governor.boost_interval_overwrites = 1ull << 40;
  opt.shard_config.governor.check_interval_events = 16;
  opt.backpressure = true;
  opt.admission_defer_limit = 4;
  opt.breaker = true;
  return opt;
}

TEST(MultiTenantOverloadTest, GovernedFleetDeterministicAcrossThreads) {
  MultiTenantReport base;
  bool first = true;
  for (int threads : {1, 2, 4}) {
    MultiTenantEngine engine(GovernedFleet(threads));
    AddChurnClients(engine, 6, 500);
    MultiTenantReport r = engine.Run();
    if (first) {
      base = r;
      first = false;
      // The cell is only meaningful if the degradation path actually
      // ran: shards must have come under enough pressure to defer.
      EXPECT_GT(r.admission_deferrals, 0u);
    } else {
      EXPECT_EQ(r.FleetChecksum(), base.FleetChecksum())
          << "threads=" << threads;
      EXPECT_EQ(r.admission_deferrals, base.admission_deferrals);
      EXPECT_EQ(r.breaker_opens, base.breaker_opens);
    }
  }
}

TEST(MultiTenantOverloadTest, BackpressureStillDrainsEveryEvent) {
  // Deferral reschedules turns, it never drops them: all client events
  // must reach their shards.
  MultiTenantEngine engine(GovernedFleet(2));
  AddChurnClients(engine, 6, 300);
  MultiTenantReport r = engine.Run();
  uint64_t applied = 0;
  for (const SimResult& s : r.shards) applied += s.clock.events;
  // Each shard additionally applied its catalog creations.
  EXPECT_EQ(applied, r.events + 2ull * 3ull);
  EXPECT_GT(r.events, 0u);
}

TEST(MultiTenantOverloadTest, UngovernedFleetUnchangedByOverloadKnobs) {
  // With backpressure/breaker off, the new fields must not disturb the
  // established fleet checksum path: two identical runs agree and the
  // overload counters stay zero.
  MultiTenantReport a = RunFleet(2, 1, 4, 300);
  MultiTenantReport b = RunFleet(2, 2, 4, 300);
  EXPECT_EQ(a.FleetChecksum(), b.FleetChecksum());
  EXPECT_EQ(a.admission_deferrals, 0u);
  EXPECT_EQ(a.breaker_opens, 0u);
  EXPECT_EQ(a.breaker_closes, 0u);
}

// The governed fleet's observable output as text: the fleet checksum,
// the overload counters, and every coordinator ledger record's
// decision fields. The checksum alone does not cover the ledger's
// event stamps, which record where in the merged stream each
// admission, breaker and budget decision landed.
std::string GovernedFleetDigest(const MultiTenantReport& r) {
  std::ostringstream out;
  out << "fleet_checksum " << r.FleetChecksum() << "\n"
      << "events " << r.events << "\n"
      << "admission_deferrals " << r.admission_deferrals << "\n"
      << "breaker_opens " << r.breaker_opens << "\n"
      << "breaker_closes " << r.breaker_closes << "\n";
  char line[160];
  for (const obs::PolicyDecisionRecord& d : r.coordinator_decisions) {
    std::snprintf(line, sizeof(line), "%llu %s %s %.17g %llu\n",
                  static_cast<unsigned long long>(d.event), d.policy.c_str(),
                  obs::DecisionReasonName(d.reason), d.target,
                  static_cast<unsigned long long>(d.next_threshold));
    out << line;
  }
  return out.str();
}

// Golden pin of a capped, governed fleet in which admission
// backpressure and the circuit breaker both fire. The file was
// generated with ODBGC_UPDATE_GOLDEN=1; the engine must reproduce it
// byte for byte at any apply-lane count.
TEST(MultiTenantOverloadTest, GovernedFleetMatchesGolden) {
  const std::string path =
      std::string(ODBGC_GOLDEN_DIR) + "/governed_fleet.txt";
  for (int threads : {1, 4}) {
    MultiTenantEngine engine(GovernedFleet(threads));
    AddChurnClients(engine, 6, 500);
    MultiTenantReport r = engine.Run();
    EXPECT_GT(r.admission_deferrals, 0u);
    EXPECT_GT(r.breaker_opens, 0u);
    const std::string digest = GovernedFleetDigest(r);
    if (std::getenv("ODBGC_UPDATE_GOLDEN") != nullptr) {
      std::ofstream(path, std::ios::binary) << digest;
      GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(digest, golden.str()) << "threads=" << threads;
  }
}

// Generated cases: seeded random fleets over the knobs that shape the
// serial schedule and the barrier (shard count, epoch size, share
// probability, coordinator cadence, backpressure and breaker) must give
// the same FleetChecksum and coordinator ledger at 1 and 3 apply lanes.
TEST(MultiTenantOverloadTest, GeneratedFleetsMatchAcrossThreadCounts) {
  Rng rng(2026);
  uint64_t deferrals = 0;
  uint64_t breaker_opens = 0;
  for (int c = 0; c < 12; ++c) {
    MultiTenantOptions opt = GovernedFleet(1);
    opt.num_shards = 1 + static_cast<uint32_t>(rng.NextBelow(5));
    opt.epoch_events = 64 + static_cast<uint32_t>(rng.NextBelow(1024));
    opt.share_prob = 0.5 * rng.NextDouble();
    opt.coordinator_period = static_cast<uint32_t>(rng.NextBelow(6));
    opt.seed = rng.Next();
    opt.backpressure = rng.NextBelow(2) == 1;
    opt.breaker = rng.NextBelow(2) == 1;
    const uint32_t per_shard = 1 + static_cast<uint32_t>(rng.NextBelow(3));
    const size_t clients = opt.num_shards * per_shard;
    // At most ~4000 churn cycles per fleet keeps the TSan leg short.
    const uint64_t cycles =
        std::min<uint64_t>(200 + rng.NextBelow(300), 4000 / clients);
    // GovernedFleet's cap scaled to this tenancy: each churn client
    // keeps ~24 KB live; about 40 KB of headroom, in 16 KB partitions.
    opt.shard_config.store.max_db_bytes =
        (per_shard * 24 + 40) / 16 * 16 * 1024;
    auto run = [&](int threads) {
      opt.threads = threads;
      MultiTenantEngine engine(opt);
      AddChurnClients(engine, clients, cycles);
      return engine.Run();
    };
    const MultiTenantReport one = run(1);
    deferrals += one.admission_deferrals;
    breaker_opens += one.breaker_opens;
    EXPECT_EQ(GovernedFleetDigest(one), GovernedFleetDigest(run(3)))
        << "case " << c << ": shards=" << opt.num_shards
        << " epoch_events=" << opt.epoch_events
        << " share_prob=" << opt.share_prob
        << " coordinator_period=" << opt.coordinator_period
        << " backpressure=" << opt.backpressure
        << " breaker=" << opt.breaker << " clients=" << clients
        << " cycles=" << cycles;
  }
  // The cases must reach the overload path, not only the happy one.
  EXPECT_GT(deferrals, 0u);
  EXPECT_GT(breaker_opens, 0u);
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

TEST(MultiTenantTest, ShardIdRangeOverflowIsRejected) {
  // max_id + 1 wraps to 0 in 32 bits; the range check must not.
  EXPECT_DEATH(
      {
        MultiTenantEngine engine(SmallFleet(2, 1));
        engine.AddClient(std::make_unique<IdRangeSource>(UINT32_MAX),
                         MuxClientOptions{});
      },
      "shard-local id ranges overflow");
  // Fits the mux's global id space but not the shard's, whose catalog
  // ids come first.
  EXPECT_DEATH(
      {
        MultiTenantEngine engine(SmallFleet(2, 1));
        engine.AddClient(std::make_unique<IdRangeSource>(UINT32_MAX - 2),
                         MuxClientOptions{});
      },
      "shard-local id ranges overflow");
}

TEST(ExternalPinTest, PinKeepsUnrootedObjectAliveUntilReleased) {
  StoreConfig cfg;
  cfg.partition_bytes = 4096;
  cfg.page_bytes = 1024;
  cfg.buffer_pages = 4;
  ObjectStore store(cfg);
  store.CreateObject(1, 200, 0);  // unrooted, would be garbage
  store.CreateObject(2, 100, 0);  // newest-allocation pin holder
  ASSERT_EQ(store.object(1).partition, 0u);

  store.AddExternalPin(1);
  store.AddExternalPin(1);  // refcounted
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_TRUE(store.Exists(1));

  store.RemoveExternalPin(1);
  gc.Collect(store, 0);
  EXPECT_TRUE(store.Exists(1));  // one refcount still held

  store.RemoveExternalPin(1);
  EXPECT_FALSE(store.IsExternallyPinned(1));
  gc.Collect(store, 0);
  EXPECT_FALSE(store.Exists(1));
}

}  // namespace
}  // namespace odbgc
