// Byte-identical-output regression harness (the oracle for data-structure
// swaps in the storage/GC core): replays a small OO7 trace through SAIO
// and SAGA and compares the full SimResultToJson output — collection log
// included — against a committed golden file. Any change to placement
// decisions, marking order, I/O accounting, or policy scheduling shows up
// as a byte diff here.
//
// The golden files were generated from the pre-overhaul (seed) structures;
// passing this test means the current structures reproduce those results
// bit for bit. To regenerate after an *intentional* behavior change, run
// with ODBGC_UPDATE_GOLDEN=1 in the environment and commit the diff.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "oo7/generator.h"
#include "sim/checkpoint.h"
#include "sim/report.h"
#include "sim/simulation.h"

#ifndef ODBGC_GOLDEN_DIR
#error "ODBGC_GOLDEN_DIR must be defined by the build"
#endif

namespace odbgc {
namespace {

// build_info (git sha, build type) legitimately differs between builds;
// everything before it must not. It is always the final member.
std::string StripBuildInfo(const std::string& json) {
  size_t pos = json.rfind(",\"build_info\":");
  if (pos == std::string::npos) return json;
  return json.substr(0, pos) + "}";
}

std::string GoldenPath(const std::string& name) {
  return std::string(ODBGC_GOLDEN_DIR) + "/" + name;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

void CheckAgainstGolden(const std::string& name, const std::string& json) {
  const std::string path = GoldenPath(name);
  if (std::getenv("ODBGC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  std::string golden;
  ASSERT_TRUE(ReadFile(path, &golden))
      << "missing golden file " << path
      << " (run with ODBGC_UPDATE_GOLDEN=1 to create it)";
  // The committed file ends with a trailing newline.
  ASSERT_FALSE(golden.empty());
  if (golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(json, golden)
      << "simulation output diverged from the committed golden result; "
         "the core data structures are no longer byte-identical";
}

// Small' is the paper's configuration: big enough that SAIO and SAGA
// both schedule dozens of collections (the golden must cover marking,
// relocation, remembered-set updates, and buffer-pool eviction, not just
// the mutator path), small enough to replay in well under a second.
Trace SmallPrimeTrace() {
  Oo7Generator gen(Oo7Params::SmallPrime(), /*seed=*/7);
  return gen.GenerateFullApplication();
}

TEST(GoldenOutputTest, SaioSmallPrimeTraceIsByteIdentical) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  SimResult result = RunSimulation(cfg, SmallPrimeTrace());
  EXPECT_GT(result.collections, 10u);  // the oracle must exercise the GC
  CheckAgainstGolden("saio_small_prime_oo7.json",
                     StripBuildInfo(SimResultToJson(result)));
}

TEST(GoldenOutputTest, SagaSmallPrimeTraceIsByteIdentical) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.saga.garbage_frac = 0.10;
  SimResult result = RunSimulation(cfg, SmallPrimeTrace());
  EXPECT_GT(result.collections, 10u);
  CheckAgainstGolden("saga_small_prime_oo7.json",
                     StripBuildInfo(SimResultToJson(result)));
}

// The verifier-instrumented run must agree too: collections verified
// after every collection catch mid-run structure desyncs that final
// aggregates could mask.
TEST(GoldenOutputTest, SagaWithPerCollectionVerifierMatchesPlainRun) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.saga.garbage_frac = 0.10;
  SimResult plain = RunSimulation(cfg, SmallPrimeTrace());
  cfg.verify_after_collection = true;
  SimResult verified = RunSimulation(cfg, SmallPrimeTrace());
  // verifier_runs differ by construction; compare the simulation outputs.
  verified.verifier_runs = plain.verifier_runs;
  EXPECT_EQ(StripBuildInfo(SimResultToJson(plain)),
            StripBuildInfo(SimResultToJson(verified)));
}

// 64-bit FNV-1a. The checkpoint fingerprint deliberately does not use
// the checkpoint format's own Crc32, so a change to that CRC cannot mask
// a change to the bytes it covers.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The chaos oracle: the same SAGA run with silent bit flips, the
// background scrubber, auto-repair of quarantined partitions, and the
// pressure governor under a capacity ceiling, plus a checkpoint written
// mid-run. Pins the repair path (quarantine, page rewrites, reverse-index
// healing) and the checkpoint encoder byte for byte.
TEST(GoldenOutputTest, SagaChaosRunWithRepairAndCheckpointIsByteIdentical) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.saga.garbage_frac = 0.10;
  cfg.store.fault.bitflip_prob = 0.0005;
  cfg.scrub_interval_events = 2000;
  cfg.auto_repair = true;
  // Ceiling just above the ~4 MB footprint: the governor's yellow band
  // engages (rate boosts) without exhausting the space.
  cfg.store.max_db_bytes = 5ull << 20;
  cfg.governor.enabled = true;
  const Trace trace = SmallPrimeTrace();
  const std::vector<TraceEvent>& events = trace.events();
  const std::string ckpt = ::testing::TempDir() + "golden_chaos.ckpt";
  Simulation sim(cfg);
  for (size_t i = 0; i < events.size(); ++i) {
    sim.Apply(events[i]);
    if (i + 1 == events.size() / 2) {
      ASSERT_EQ(WriteCheckpoint(sim, ckpt), CheckpointError::kNone);
    }
  }
  const SimResult result = sim.Finish();
  EXPECT_GT(result.collections, 10u);
  EXPECT_GT(result.partitions_repaired, 0u);
  EXPECT_GT(result.governor_boost_collections, 0u);
  CheckAgainstGolden("saga_chaos_small_prime_oo7.json",
                     StripBuildInfo(SimResultToJson(result)));

  std::string bytes;
  ASSERT_TRUE(ReadFile(ckpt, &bytes));
  char fnv[32];
  std::snprintf(fnv, sizeof(fnv), "%016" PRIx64, Fnv1a64(bytes));
  CheckAgainstGolden("saga_chaos_small_prime_oo7.ckpt.fnv1a",
                     std::to_string(bytes.size()) + " " + fnv);
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".prev").c_str());
}

}  // namespace
}  // namespace odbgc
