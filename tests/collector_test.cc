#include <gtest/gtest.h>

#include "gc/collector.h"
#include "storage/object_store.h"
#include "storage/reachability.h"

namespace odbgc {
namespace {

StoreConfig SmallStore() {
  StoreConfig cfg;
  cfg.partition_bytes = 4096;
  cfg.page_bytes = 512;
  cfg.buffer_pages = 8;
  // These fixtures wire graphs by hand and drop references deliberately;
  // there is no application holding the newest allocation.
  cfg.pin_newest_allocation = false;
  return cfg;
}

TEST(CollectorTest, ReclaimsUnreachableKeepsReachable) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);  // root
  store.CreateObject(2, 100, 0);  // live via 1
  store.CreateObject(3, 100, 0);  // garbage
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);

  Collector gc;
  CollectionReport report = gc.Collect(store, 0);
  EXPECT_EQ(report.bytes_before, 300u);
  EXPECT_EQ(report.bytes_reclaimed, 100u);
  EXPECT_EQ(report.bytes_live, 200u);
  EXPECT_EQ(report.objects_reclaimed, 1u);
  EXPECT_EQ(report.objects_live, 2u);
  EXPECT_TRUE(store.Exists(1));
  EXPECT_TRUE(store.Exists(2));
  EXPECT_FALSE(store.Exists(3));
  EXPECT_EQ(store.used_bytes(), 200u);
}

TEST(CollectorTest, CompactsSurvivorsFromOffsetZero) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);  // garbage (no root)
  store.CreateObject(2, 100, 0);  // root at offset 100
  store.AddRoot(2);
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_EQ(store.object(2).offset, 0u);
  EXPECT_EQ(store.partition(0).used(), 100u);
}

TEST(CollectorTest, BreadthFirstCopyOrderFromRoots) {
  ObjectStore store(SmallStore());
  // root(1) -> {2, 3}; 2 -> 4. BFS order: 1, 2, 3, 4.
  store.CreateObject(1, 10, 2);
  store.CreateObject(2, 10, 1);
  store.CreateObject(3, 10, 0);
  store.CreateObject(4, 10, 0);
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  store.WriteRef(1, 1, 3);
  store.WriteRef(2, 0, 4);
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_EQ(store.object(1).offset, 0u);
  EXPECT_EQ(store.object(2).offset, 10u);
  EXPECT_EQ(store.object(3).offset, 20u);
  EXPECT_EQ(store.object(4).offset, 30u);
}

TEST(CollectorTest, ExternallyReferencedObjectsAreRoots) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 4000, 1);  // fills partition 0; root
  store.CreateObject(2, 100, 0);   // partition 1, only referenced by 1
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  ASSERT_EQ(store.object(2).partition, 1u);
  Collector gc;
  CollectionReport report = gc.Collect(store, 1);
  // Object 2 is kept alive by the external reference from partition 0.
  EXPECT_TRUE(store.Exists(2));
  EXPECT_EQ(report.bytes_reclaimed, 0u);
}

TEST(CollectorTest, PointersLeavingPartitionNotTraversed) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 4000, 1);  // partition 0, root
  store.CreateObject(2, 100, 1);   // partition 1, live (referenced by 1)
  store.CreateObject(3, 100, 0);   // partition 1, garbage
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  // 2 points back into partition 0 (cross-partition, must not confuse
  // the collection of partition 1).
  store.WriteRef(2, 0, 1);
  Collector gc;
  CollectionReport report = gc.Collect(store, 1);
  EXPECT_TRUE(store.Exists(2));
  EXPECT_FALSE(store.Exists(3));
  EXPECT_EQ(report.bytes_reclaimed, 100u);
  EXPECT_TRUE(store.Exists(1));  // untouched
}

TEST(CollectorTest, FloatingCrossPartitionGarbageCollectedInTwoSteps) {
  // Garbage in partition 1 referenced only by garbage in partition 0:
  // collecting partition 1 first keeps it (conservative), collecting
  // partition 0 then partition 1 reclaims everything.
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);   // root, partition 0
  store.CreateObject(2, 3996, 1);  // garbage, partition 0 (fills it)
  store.CreateObject(3, 100, 0);   // partition 1, referenced only by 2
  store.AddRoot(1);
  store.WriteRef(2, 0, 3);
  ASSERT_EQ(store.object(3).partition, 1u);

  Collector gc;
  CollectionReport r1 = gc.Collect(store, 1);
  EXPECT_EQ(r1.bytes_reclaimed, 0u);  // 3 survives: external ref from 2
  EXPECT_TRUE(store.Exists(3));

  gc.Collect(store, 0);  // reclaims 2, dropping its ref into partition 1
  EXPECT_FALSE(store.Exists(2));
  CollectionReport r2 = gc.Collect(store, 1);
  EXPECT_EQ(r2.bytes_reclaimed, 100u);
  EXPECT_FALSE(store.Exists(3));
}

TEST(CollectorTest, ResetsOverwriteCounter) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 100, 0);
  store.CreateObject(3, 100, 0);
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  store.WriteRef(1, 0, 3);  // overwrite charged to partition 0
  ASSERT_EQ(store.partition(0).overwrites(), 1u);
  Collector gc;
  CollectionReport report = gc.Collect(store, 0);
  EXPECT_EQ(report.overwrites_at_collection, 1u);
  EXPECT_EQ(store.partition(0).overwrites(), 0u);
  EXPECT_EQ(store.partition(0).collections(), 1u);
}

TEST(CollectorTest, CollectionCostsGcIo) {
  StoreConfig cfg = SmallStore();
  cfg.buffer_pages = 2;  // partition does not fit: the scan must do I/O
  ObjectStore store(cfg);
  store.CreateObject(1, 2000, 0);
  store.AddRoot(1);
  Collector gc;
  CollectionReport report = gc.Collect(store, 0);
  EXPECT_GT(report.gc_io(), 0u);
  EXPECT_EQ(store.io_stats().gc_total(), report.gc_io());
}

TEST(CollectorTest, ExternalReferencersPagesTouchedOnRelocation) {
  StoreConfig cfg = SmallStore();
  cfg.buffer_pages = 2;  // tiny buffer so touches become I/O
  ObjectStore store(cfg);
  store.CreateObject(1, 4000, 1);  // partition 0, root, references 2
  store.CreateObject(2, 100, 0);   // partition 1
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  uint64_t gc_writes_before = store.io_stats().gc_writes;
  Collector gc;
  gc.Collect(store, 1);
  // Updating the pointer in object 1 dirties partition-0 pages under GC
  // context; with a 2-frame buffer those must flow through eviction by
  // the end of the collection or remain dirty in the pool. At minimum
  // the collection performed GC reads of partition 0's page.
  EXPECT_GT(store.io_stats().gc_reads, 0u);
  (void)gc_writes_before;
}

TEST(CollectorTest, EmptyPartitionCollectionIsHarmless) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 4000, 0);  // partition 0 full
  store.CreateObject(2, 100, 0);   // partition 1
  store.AddRoot(1);
  store.AddRoot(2);
  Collector gc;
  gc.Collect(store, 1);
  CollectionReport again = gc.Collect(store, 1);
  EXPECT_EQ(again.bytes_reclaimed, 0u);
  EXPECT_TRUE(store.Exists(2));
}

TEST(CollectorTest, ReverseIndexConsistentAfterCollection) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 2);
  store.CreateObject(2, 100, 1);
  store.CreateObject(3, 100, 1);  // garbage referencing 2
  store.CreateObject(4, 100, 0);
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  store.WriteRef(2, 0, 4);
  store.WriteRef(3, 0, 2);  // garbage -> live
  Collector gc;
  gc.Collect(store, 0);
  // 3 destroyed; its in_ref entry on 2 must be gone.
  EXPECT_EQ(store.in_refs(2).size(), 1u);
  EXPECT_EQ(store.in_refs(2)[0].src, 1u);
  // Everything reachable must still be reachable.
  ReachabilityResult r = ScanReachability(store);
  EXPECT_TRUE(r.reachable[1]);
  EXPECT_TRUE(r.reachable[2]);
  EXPECT_TRUE(r.reachable[4]);
  EXPECT_EQ(r.unreachable_bytes, 0u);
}

TEST(CollectorTest, GroundTruthCollectedBytesUpdated) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);
  store.CreateObject(2, 100, 0);  // garbage
  store.AddRoot(1);
  store.RecordGarbageCreated(100, 1);  // the host knows 2 is garbage
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_EQ(store.total_garbage_collected(), 100u);
  EXPECT_EQ(store.actual_garbage_bytes(), 0u);
}


TEST(CollectorTest, ImmediateRecollectionIsIdempotent) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 100, 0);
  store.CreateObject(3, 100, 0);  // garbage
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  Collector gc;
  CollectionReport first = gc.Collect(store, 0);
  EXPECT_EQ(first.bytes_reclaimed, 100u);
  CollectionReport second = gc.Collect(store, 0);
  EXPECT_EQ(second.bytes_reclaimed, 0u);
  EXPECT_EQ(second.bytes_live, first.bytes_live);
  EXPECT_EQ(store.object(1).offset, 0u);  // layout stable
}

TEST(CollectorTest, RootSurvivesAndCompactsToFront) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);  // garbage at offset 0
  store.CreateObject(2, 100, 0);  // root at offset 100
  store.AddRoot(2);
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_TRUE(store.IsRoot(2));
  EXPECT_EQ(store.object(2).offset, 0u);
}

TEST(CollectorTest, MultipleExternalReferencesCountOnce) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 2048, 2);  // partition 0, root, two refs to 3
  store.CreateObject(2, 2040, 1);  // partition 0, also refs 3
  store.CreateObject(3, 100, 0);   // partition 1
  store.AddRoot(1);
  store.AddRoot(2);
  store.WriteRef(1, 0, 3);
  store.WriteRef(1, 1, 3);
  store.WriteRef(2, 0, 3);
  ASSERT_EQ(store.object(3).partition, 1u);
  ASSERT_EQ(store.in_refs(3).size(), 3u);
  Collector gc;
  CollectionReport r = gc.Collect(store, 1);
  EXPECT_EQ(r.objects_live, 1u);
  EXPECT_TRUE(store.Exists(3));
}

TEST(CollectorTest, CollectionsPerformedCounterAdvances) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);
  store.AddRoot(1);
  Collector gc;
  EXPECT_EQ(gc.collections_performed(), 0u);
  gc.Collect(store, 0);
  gc.Collect(store, 0);
  EXPECT_EQ(gc.collections_performed(), 2u);
}

TEST(CollectorTest, QuarantinedPartitionIsSkippedUntouched) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);  // garbage: would be reclaimed
  ASSERT_TRUE(store.QuarantinePartition(0));
  const IoStats before = store.io_stats();
  Collector gc;
  CollectionReport report = gc.Collect(store, 0);
  EXPECT_TRUE(report.skipped_quarantine);
  EXPECT_EQ(report.bytes_reclaimed, 0u);
  EXPECT_TRUE(store.Exists(1));
  EXPECT_EQ(store.io_stats().gc_reads, before.gc_reads);
  EXPECT_EQ(store.io_stats().gc_writes, before.gc_writes);
  EXPECT_EQ(gc.collections_performed(), 0u);
}

}  // namespace
}  // namespace odbgc
