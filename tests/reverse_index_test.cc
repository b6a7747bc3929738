// Randomized churn over the store's O(1) reverse-index machinery:
// create / rewrite / unlink / collect, cross-validating in_refs, the
// slot back-pointers, the cross-partition in-ref counters, and the
// allocation free-space index with the heap verifier at every
// collection. A desynced index must also die loudly on the hot path,
// which the death tests pin down. The repair path's in-place list sort
// (CanonicalizeInRefs) must leave exactly the state a full rebuild does,
// visiting only the lists its may-be-unsorted marks name.

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "gc/collector.h"
#include "storage/object_store.h"
#include "storage/verifier.h"
#include "util/random.h"
#include "util/snapshot.h"

namespace odbgc {
namespace {

StoreConfig SmallConfig() {
  StoreConfig config;
  config.partition_bytes = 8 * 1024;
  config.page_bytes = 1024;
  config.buffer_pages = 12;
  return config;
}

VerifierOptions BareOptions() {
  VerifierOptions options;
  // The churn test does not maintain ground-truth garbage markers.
  options.check_reachability_agreement = false;
  return options;
}

TEST(ReverseIndexChurnTest, RandomChurnStaysConsistentAcrossCollections) {
  ObjectStore store(SmallConfig());
  Collector collector;
  Rng rng(0xc0ffee);

  std::vector<ObjectId> live;
  ObjectId next_id = 1;
  constexpr size_t kRoots = 8;
  constexpr uint64_t kOps = 6000;
  constexpr uint64_t kCollectEvery = 250;

  // Seed a rooted core so collections have survivors.
  for (size_t i = 0; i < kRoots; ++i) {
    const ObjectId id = next_id++;
    store.CreateObject(id, 64 + 8 * static_cast<uint32_t>(i), 4);
    store.AddRoot(id);
    live.push_back(id);
  }

  uint64_t collections = 0;
  for (uint64_t op = 0; op < kOps; ++op) {
    if (rng.NextBool(0.3)) {
      // Create, sometimes clustered near an existing object.
      const ObjectId id = next_id++;
      const uint32_t size = 32 + static_cast<uint32_t>(rng.NextBelow(225));
      const uint32_t slots = static_cast<uint32_t>(rng.NextBelow(5));
      const ObjectId hint = rng.NextBool(0.5)
                                ? live[rng.NextBelow(live.size())]
                                : kNullObject;
      store.CreateObject(id, size, slots, hint);
      live.push_back(id);
      // Usually link the newcomer in so part of the graph stays reachable.
      if (rng.NextBool(0.8)) {
        const ObjectId parent = live[rng.NextBelow(live.size())];
        const uint32_t nslots = store.object(parent).slot_count;
        if (nslots > 0) {
          store.WriteRef(parent, static_cast<uint32_t>(rng.NextBelow(nslots)),
                         id);
        }
      }
    } else {
      // Rewrite a random slot: retarget (builds shared structure and
      // cross-partition edges) or null out (creates garbage).
      const ObjectId src = live[rng.NextBelow(live.size())];
      const uint32_t nslots = store.object(src).slot_count;
      if (nslots == 0) continue;
      const uint32_t slot = static_cast<uint32_t>(rng.NextBelow(nslots));
      const ObjectId target =
          rng.NextBool(0.15) ? kNullObject : live[rng.NextBelow(live.size())];
      store.WriteRef(src, slot, target);
    }

    if ((op + 1) % kCollectEvery == 0) {
      const PartitionId p =
          static_cast<PartitionId>(rng.NextBelow(store.partition_count()));
      collector.Collect(store, p);
      ++collections;
      VerifierReport vr = VerifyHeap(store, BareOptions());
      ASSERT_TRUE(vr.ok()) << "after collection " << collections << ": "
                           << vr.Summary();
      // Drop collected ids from the candidate pool.
      std::vector<ObjectId> survivors;
      survivors.reserve(live.size());
      for (ObjectId id : live) {
        if (store.Exists(id)) survivors.push_back(id);
      }
      live.swap(survivors);
    }
  }

  // Final sweep over every partition, verifying after each one.
  for (PartitionId p = 0; p < store.partition_count(); ++p) {
    collector.Collect(store, p);
    VerifierReport vr = VerifyHeap(store, BareOptions());
    ASSERT_TRUE(vr.ok()) << "final sweep partition " << p << ": "
                         << vr.Summary();
  }
  EXPECT_GT(collections, 10u);
  EXPECT_GT(store.partition_count(), 4u);
  EXPECT_GT(store.pointer_overwrites(), 100u);
}

TEST(ReverseIndexChurnTest, VerifierFlagsDesyncedIndices) {
  ObjectStore store(SmallConfig());
  store.CreateObject(1, 64, 2);
  store.CreateObject(2, 64, 0);
  store.WriteRef(1, 0, 2);
  ASSERT_TRUE(VerifyHeap(store, BareOptions()).ok());

  // Index-consistency messages name the partition so an operator can go
  // straight from a violation to `odbgc_run --verify=partition` and the
  // quarantine/repair machinery (docs/RECOVERY.md).
  const std::string where =
      "partition " + std::to_string(store.object(2).partition);

  // A miscounted cross-partition counter.
  ++store.mutable_object(2).xpart_in_refs;
  VerifierReport xpart = VerifyHeap(store, BareOptions());
  EXPECT_FALSE(xpart.ok());
  EXPECT_NE(xpart.Summary().find("xpart_in_refs"), std::string::npos)
      << xpart.Summary();
  EXPECT_NE(xpart.Summary().find(where), std::string::npos)
      << xpart.Summary();
  --store.mutable_object(2).xpart_in_refs;
  ASSERT_TRUE(VerifyHeap(store, BareOptions()).ok());

  // A back-pointer that no longer addresses its own entry.
  store.mutable_in_refs(2)[0].backref_pos += 1;
  VerifierReport backref = VerifyHeap(store, BareOptions());
  EXPECT_FALSE(backref.ok());
  EXPECT_NE(backref.Summary().find("backref"), std::string::npos)
      << backref.Summary();
  EXPECT_NE(backref.Summary().find(where), std::string::npos)
      << backref.Summary();
  store.mutable_in_refs(2)[0].backref_pos -= 1;
  ASSERT_TRUE(VerifyHeap(store, BareOptions()).ok());

  // VerifyPartition flags the same desync when pointed at the damaged
  // partition and stays clean on the others.
  ++store.mutable_object(2).xpart_in_refs;
  const PartitionId damaged = store.object(2).partition;
  VerifierReport scoped = VerifyPartition(store, damaged, BareOptions());
  EXPECT_FALSE(scoped.ok());
  EXPECT_NE(scoped.Summary().find(where), std::string::npos)
      << scoped.Summary();
  for (PartitionId p = 0; p < store.partition_count(); ++p) {
    if (p == damaged) continue;
    EXPECT_TRUE(VerifyPartition(store, p, BareOptions()).ok()) << p;
  }
  --store.mutable_object(2).xpart_in_refs;
  ASSERT_TRUE(VerifyHeap(store, BareOptions()).ok());
}

// Seeded create / rewrite / unlink churn with a collection every 200
// operations: leaves the in-ref lists in swap-erase (non-canonical)
// order. Equal seeds build identical stores.
void ChurnStore(ObjectStore& store, uint64_t seed) {
  Collector collector;
  Rng rng(seed);
  std::vector<ObjectId> live;
  ObjectId next_id = 1;
  for (int i = 0; i < 8; ++i) {
    store.CreateObject(next_id, 96, 4);
    store.AddRoot(next_id);
    live.push_back(next_id++);
  }
  for (uint64_t op = 0; op < 4000; ++op) {
    if (rng.NextBool(0.3)) {
      const ObjectId hint = live[rng.NextBelow(live.size())];
      const uint32_t size = 32 + static_cast<uint32_t>(rng.NextBelow(200));
      store.CreateObject(next_id, size, static_cast<uint32_t>(rng.NextBelow(5)),
                         rng.NextBool(0.5) ? hint : kNullObject);
      live.push_back(next_id++);
    }
    const ObjectId src = live[rng.NextBelow(live.size())];
    const uint32_t nslots = store.object(src).slot_count;
    if (nslots > 0) {
      const ObjectId target =
          rng.NextBool(0.15) ? kNullObject : live[rng.NextBelow(live.size())];
      store.WriteRef(src, static_cast<uint32_t>(rng.NextBelow(nslots)),
                     target);
    }
    if ((op + 1) % 200 == 0) {
      collector.Collect(store, static_cast<PartitionId>(
                                   rng.NextBelow(store.partition_count())));
      std::erase_if(live, [&](ObjectId id) { return !store.Exists(id); });
    }
  }
}

bool InCanonicalOrder(const std::vector<InRef>& refs) {
  return std::is_sorted(refs.begin(), refs.end(),
                        [](const InRef& a, const InRef& b) {
                          return a.src != b.src ? a.src < b.src
                                                : a.backref_pos < b.backref_pos;
                        });
}

// Every piece of derived state: in-ref lists (entry for entry, in
// order), live slot back-references, cross-partition counters, and the
// free-space index.
void ExpectSameDerivedState(const ObjectStore& a, const ObjectStore& b) {
  ASSERT_EQ(a.max_object_id(), b.max_object_id());
  for (ObjectId id = 1; id <= a.max_object_id(); ++id) {
    ASSERT_EQ(a.Exists(id), b.Exists(id)) << id;
    if (!a.Exists(id)) continue;
    EXPECT_EQ(a.in_refs(id), b.in_refs(id)) << "object " << id;
    EXPECT_EQ(a.object(id).xpart_in_refs, b.object(id).xpart_in_refs) << id;
    const std::span<const Slot> sa = a.slots(id);
    const std::span<const Slot> sb = b.slots(id);
    ASSERT_EQ(sa.size(), sb.size()) << id;
    for (size_t j = 0; j < sa.size(); ++j) {
      EXPECT_EQ(sa[j].target, sb[j].target) << id << "/" << j;
      if (sa[j].target != kNullObject) {
        EXPECT_EQ(sa[j].backref, sb[j].backref) << id << "/" << j;
      }
    }
  }
  ASSERT_EQ(a.partition_count(), b.partition_count());
  for (PartitionId p = 0; p < a.partition_count(); ++p) {
    EXPECT_EQ(a.indexed_free_bytes(p), b.indexed_free_bytes(p)) << p;
  }
}

TEST(CanonicalizeInRefsTest, MatchesAFullRebuildOnChurnedStores) {
  for (const uint64_t seed : {1u, 2u, 0xc0ffeeu}) {
    SCOPED_TRACE(seed);
    ObjectStore sorted(SmallConfig());
    ObjectStore rebuilt(SmallConfig());
    ChurnStore(sorted, seed);
    ChurnStore(rebuilt, seed);
    // Churn really left lists out of canonical order (the test would be
    // vacuous otherwise).
    size_t unsorted = 0;
    for (ObjectId id = 1; id <= sorted.max_object_id(); ++id) {
      if (sorted.Exists(id) && !InCanonicalOrder(sorted.in_refs(id))) {
        ++unsorted;
      }
    }
    EXPECT_GT(unsorted, 0u);

    sorted.CanonicalizeInRefs();
    rebuilt.RebuildDerivedState();
    ExpectSameDerivedState(sorted, rebuilt);
    VerifierReport vr = VerifyHeap(sorted, BareOptions());
    EXPECT_TRUE(vr.ok()) << vr.Summary();
    // Idempotent.
    sorted.CanonicalizeInRefs();
    ExpectSameDerivedState(sorted, rebuilt);
  }
}

TEST(CanonicalizeInRefsTest, MatchesAFullRebuildAfterASnapshotRoundTrip) {
  for (const uint64_t seed : {3u, 4u}) {
    SCOPED_TRACE(seed);
    ObjectStore churned(SmallConfig());
    ChurnStore(churned, seed);
    SnapshotWriter w;
    churned.SaveState(w);
    ObjectStore sorted(SmallConfig());
    ObjectStore rebuilt(SmallConfig());
    SnapshotReader r1(w.data());
    sorted.RestoreState(r1);
    ASSERT_TRUE(r1.AtEnd()) << r1.error();
    SnapshotReader r2(w.data());
    rebuilt.RestoreState(r2);
    ASSERT_TRUE(r2.AtEnd()) << r2.error();
    sorted.CanonicalizeInRefs();
    rebuilt.RebuildDerivedState();
    ExpectSameDerivedState(sorted, rebuilt);
  }
}

// One generated case, replayed in lockstep on two stores: `sorted` is
// canonicalized in place, `rebuilt` gets a full RebuildDerivedState at
// the same points. Between those points both see the same operations,
// so they must agree on every piece of derived state; any list the
// may-be-unsorted marks miss stays out of order in `sorted` only.
class UnsortedMarksCase {
 public:
  explicit UnsortedMarksCase(uint64_t seed)
      : sorted_(std::make_unique<ObjectStore>(SmallConfig())),
        rebuilt_(std::make_unique<ObjectStore>(SmallConfig())),
        rng_(seed) {
    for (int i = 0; i < 6; ++i) {
      Create(next_id_++, 96, 4);
      sorted_->AddRoot(live_.back());
      rebuilt_->AddRoot(live_.back());
    }
  }

  // Creates, rewrites and nulls slots; sometimes re-creates an id the
  // collector destroyed, so a reused id's list starts over.
  void Churn(int ops) {
    for (int op = 0; op < ops; ++op) {
      if (rng_.NextBool(0.25)) {
        ObjectId id = next_id_;
        if (!dead_.empty() && rng_.NextBool(0.5)) {
          id = dead_.back();
          dead_.pop_back();
        } else {
          ++next_id_;
        }
        Create(id, 32 + static_cast<uint32_t>(rng_.NextBelow(200)),
               static_cast<uint32_t>(rng_.NextBelow(5)));
      }
      const ObjectId src = Pick();
      const uint32_t nslots = sorted_->object(src).slot_count;
      if (nslots == 0) continue;
      const uint32_t slot = static_cast<uint32_t>(rng_.NextBelow(nslots));
      const ObjectId target = rng_.NextBool(0.15) ? kNullObject : Pick();
      sorted_->WriteRef(src, slot, target);
      rebuilt_->WriteRef(src, slot, target);
    }
  }

  void Collect() {
    const PartitionId p = static_cast<PartitionId>(
        rng_.NextBelow(sorted_->partition_count()));
    collector_sorted_.Collect(*sorted_, p);
    collector_rebuilt_.Collect(*rebuilt_, p);
    std::erase_if(live_, [&](ObjectId id) {
      if (sorted_->Exists(id)) return false;
      dead_.push_back(id);
      return true;
    });
  }

  // Reverses a random non-trivial in-ref list through the test hook,
  // patching the slot back-references so the index stays consistent.
  void ReverseSomeList() {
    for (int tries = 0; tries < 50; ++tries) {
      const ObjectId id = Pick();
      if (sorted_->in_refs(id).size() < 2) continue;
      for (ObjectStore* store : {sorted_.get(), rebuilt_.get()}) {
        std::vector<InRef>& in = store->mutable_in_refs(id);
        std::reverse(in.begin(), in.end());
        for (uint32_t i = 0; i < in.size(); ++i) {
          const uint32_t slot =
              in[i].backref_pos - store->object(in[i].src).slot_begin;
          store->mutable_slots(in[i].src)[slot].backref = i;
        }
      }
      return;
    }
  }

  // Replaces both stores with their own snapshot round trips.
  void SaveAndRestore() {
    for (std::unique_ptr<ObjectStore>* store : {&sorted_, &rebuilt_}) {
      SnapshotWriter w;
      (*store)->SaveState(w);
      auto restored = std::make_unique<ObjectStore>(SmallConfig());
      SnapshotReader r(w.data());
      restored->RestoreState(r);
      ASSERT_TRUE(r.AtEnd()) << r.error();
      *store = std::move(restored);
    }
  }

  // Returns how many lists were out of order before the pass.
  size_t CanonicalizeAndCompare() {
    size_t out_of_order = 0;
    for (ObjectId id = 1; id <= sorted_->max_object_id(); ++id) {
      if (sorted_->Exists(id) && !InCanonicalOrder(sorted_->in_refs(id))) {
        ++out_of_order;
      }
    }
    sorted_->CanonicalizeInRefs();
    rebuilt_->RebuildDerivedState();
    for (ObjectId id = 1; id <= sorted_->max_object_id(); ++id) {
      if (sorted_->Exists(id)) {
        EXPECT_TRUE(InCanonicalOrder(sorted_->in_refs(id))) << "object " << id;
      }
    }
    ExpectSameDerivedState(*sorted_, *rebuilt_);
    VerifierReport vr = VerifyHeap(*sorted_, BareOptions());
    EXPECT_TRUE(vr.ok()) << vr.Summary();
    return out_of_order;
  }

 private:
  ObjectId Pick() { return live_[rng_.NextBelow(live_.size())]; }

  void Create(ObjectId id, uint32_t size, uint32_t slots) {
    const ObjectId hint =
        live_.empty() || rng_.NextBool(0.5) ? kNullObject : Pick();
    sorted_->CreateObject(id, size, slots, hint);
    rebuilt_->CreateObject(id, size, slots, hint);
    live_.push_back(id);
  }

  std::unique_ptr<ObjectStore> sorted_;
  std::unique_ptr<ObjectStore> rebuilt_;
  Collector collector_sorted_;
  Collector collector_rebuilt_;
  Rng rng_;
  std::vector<ObjectId> live_;
  std::vector<ObjectId> dead_;
  ObjectId next_id_ = 1;
};

TEST(CanonicalizeInRefsTest, UnsortedMarksCoverEveryReorderingEdit) {
  for (const uint64_t seed : {5u, 6u, 0xbadc0deu}) {
    SCOPED_TRACE(seed);
    UnsortedMarksCase c(seed);
    size_t disturbed = 0;
    for (int round = 0; round < 8; ++round) {
      SCOPED_TRACE(round);
      c.Churn(300);
      c.Collect();
      c.Churn(150);
      // Several passes per case, each clearing the marks the churn since
      // the previous one set. Right after a pass every list is canonical,
      // so only the test hook's own mark can name the reversed list.
      if (round % 2 == 1) {
        disturbed += c.CanonicalizeAndCompare();
        c.ReverseSomeList();
      }
      if (round == 4) {
        c.SaveAndRestore();
        if (HasFatalFailure()) return;
      }
      c.Collect();
    }
    disturbed += c.CanonicalizeAndCompare();
    c.ReverseSomeList();
    EXPECT_EQ(c.CanonicalizeAndCompare(), 1u);
    // Idempotent: nothing is left to sort.
    EXPECT_EQ(c.CanonicalizeAndCompare(), 0u);
    EXPECT_GT(disturbed, 0u);
  }
}

TEST(ReverseIndexDeathTest, DesyncedBackrefDiesOnOverwrite) {
  ObjectStore store(SmallConfig());
  store.CreateObject(1, 64, 2);
  store.CreateObject(2, 64, 0);
  store.WriteRef(1, 0, 2);
  // Corrupt the slot's back-pointer; the O(1) detach must refuse to
  // swap-erase through it.
  store.mutable_slots(1)[0].backref = 7;
  EXPECT_DEATH(store.WriteRef(1, 0, kNullObject), "reverse index out of sync");
}

}  // namespace
}  // namespace odbgc
