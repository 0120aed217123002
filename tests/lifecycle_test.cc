// Unit tests for the contract lifecycle (DESIGN.md §14): Unregister and
// Replace semantics on the in-memory database, system-period history and
// as-of time travel, retention pruning, durable round trips of the whole
// lifecycle, and the sharded router's lifecycle routing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "broker/database.h"
#include "broker/durable.h"
#include "broker/persistence.h"
#include "shard/sharded.h"
#include "testing/temp_dir.h"
#include "util/file_util.h"
#include "wal/record.h"

namespace ctdb {
namespace {

using broker::ContractDatabase;
using broker::QueryOptions;

std::vector<uint32_t> Matches(const ContractDatabase& db,
                              const std::string& query, uint64_t as_of = 0) {
  QueryOptions options;
  options.as_of = as_of;
  auto result = db.Query(query, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->matches : std::vector<uint32_t>{};
}

TEST(LifecycleTest, UnregisterRemovesFromLiveSet) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  ASSERT_TRUE(db.Register("b", "F pay").ok());
  ASSERT_TRUE(db.Register("c", "G !pay").ok());
  EXPECT_EQ(db.size(), 3u);

  auto clock = db.Unregister(1);
  ASSERT_TRUE(clock.ok()) << clock.status().ToString();
  EXPECT_EQ(*clock, 4u);  // fourth mutation
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{0}));

  // Ids are never reused: the next registration gets a fresh slot.
  auto next = db.Register("d", "F pay");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{0, 3}));
}

TEST(LifecycleTest, UnregisterDeadOrUnknownIdIsNotFound) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  ASSERT_TRUE(db.Unregister(0).ok());
  EXPECT_TRUE(db.Unregister(0).status().IsNotFound());   // already dead
  EXPECT_TRUE(db.Unregister(7).status().IsNotFound());   // never existed
  EXPECT_TRUE(db.Replace(0, "G pay").status().IsNotFound());
}

TEST(LifecycleTest, ReplaceSupersedesSpecKeepingIdAndName) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("strict", "G !pay").ok());
  ASSERT_TRUE(db.Register("other", "F pay").ok());
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{1}));

  auto clock = db.Replace(0, "F pay");
  ASSERT_TRUE(clock.ok()) << clock.status().ToString();
  EXPECT_EQ(*clock, 3u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.contract(0).name, "strict");
  EXPECT_EQ(db.contract(0).ltl_text, "F pay");
  EXPECT_EQ(db.contract(0).valid_from, 3u);
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{0, 1}));
}

TEST(LifecycleTest, ReplaceRejectsMalformedSpecLeavingContractIntact) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  EXPECT_FALSE(db.Replace(0, "F ((").ok());
  EXPECT_EQ(db.contract(0).ltl_text, "F pay");
  EXPECT_EQ(db.last_sequence(), 1u);  // failed replace does not tick
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{0}));

  // A failed replace leaves no event behind either, in memory or durably,
  // before and after a restart.
  EXPECT_FALSE(db.Replace(0, "F ghost & (").ok());
  ASSERT_TRUE(db.Register("b", "F pay").ok());
  EXPECT_TRUE(db.Query("F ghost").status().IsNotFound());

  testing::TempDir dir("lcghost");
  for (int open = 0; open < 2; ++open) {
    auto durable = broker::DurableDatabase::Open(dir.path() + "/wal");
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    if (open == 0) {
      ASSERT_TRUE((*durable)->Register("a", "F pay").ok());
      EXPECT_FALSE((*durable)->Replace(0, "F ghost & (").ok());
      ASSERT_TRUE((*durable)->Register("b", "F pay").ok());
    }
    EXPECT_TRUE((*durable)->Query("F ghost").status().IsNotFound())
        << "open " << open;
    EXPECT_TRUE((*durable)->Close().ok());
  }
}

TEST(LifecycleTest, QueryAsOfSeesEveryHistoricalState) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());      // clock 1
  ASSERT_TRUE(db.Register("b", "F pay").ok());      // clock 2
  ASSERT_TRUE(db.Unregister(0).ok());               // clock 3
  ASSERT_TRUE(db.Replace(1, "G !pay").ok());        // clock 4

  EXPECT_EQ(Matches(db, "F pay", 1), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Matches(db, "F pay", 2), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Matches(db, "F pay", 3), (std::vector<uint32_t>{1}));
  EXPECT_EQ(Matches(db, "F pay", 4), (std::vector<uint32_t>{}));
  EXPECT_EQ(Matches(db, "G !pay", 4), (std::vector<uint32_t>{1}));
  // as_of 0 and as_of past the clock both answer latest.
  EXPECT_EQ(Matches(db, "F pay", 0), (std::vector<uint32_t>{}));
  EXPECT_EQ(Matches(db, "F pay", 99), (std::vector<uint32_t>{}));
}

TEST(LifecycleTest, AsOfBelowPrunedFloorIsInvalidArgument) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());   // clock 1
  ASSERT_TRUE(db.Replace(0, "G !pay").ok());     // clock 2
  ASSERT_TRUE(db.Replace(0, "F pay").ok());      // clock 3
  db.PruneHistory(2);

  QueryOptions options;
  options.as_of = 1;
  EXPECT_TRUE(db.Query("F pay", options).status().IsInvalidArgument());
  // At and above the floor, history still answers.
  EXPECT_EQ(Matches(db, "G !pay", 2), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Matches(db, "F pay", 3), (std::vector<uint32_t>{0}));
}

TEST(LifecycleTest, AsOfWitnessesSatisfyTheQuery) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  ASSERT_TRUE(db.Replace(0, "G !pay").ok());

  QueryOptions options;
  options.as_of = 1;
  options.collect_witnesses = true;
  auto result = db.Query("F pay", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->matches, (std::vector<uint32_t>{0}));
  ASSERT_EQ(result->witnesses.size(), 1u);
  EXPECT_FALSE(result->witnesses[0].prefix.empty() &&
               result->witnesses[0].cycle.empty());
}

TEST(LifecycleTest, PersistenceRoundTripsHistoryAndClock) {
  testing::TempDir dir("lcpersist");
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  ASSERT_TRUE(db.Register("b", "G !pay").ok());
  ASSERT_TRUE(db.Unregister(0).ok());
  ASSERT_TRUE(db.Replace(1, "F pay").ok());

  const std::string path = dir.file("image.ctdb");
  ASSERT_TRUE(broker::SaveDatabaseToFile(db, path).ok());
  auto loaded = broker::LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->size(), db.size());
  EXPECT_EQ((*loaded)->last_sequence(), db.last_sequence());
  EXPECT_EQ((*loaded)->op_count(), db.op_count());
  for (uint64_t s = 1; s <= db.last_sequence(); ++s) {
    for (const char* q : {"F pay", "G !pay"}) {
      EXPECT_EQ(Matches(**loaded, q, s), Matches(db, q, s))
          << "as_of=" << s << " query " << q;
    }
  }
}

TEST(LifecycleTest, DurableLifecycleSurvivesReopen) {
  testing::TempDir dir("lcdurable");
  uint64_t final_clock = 0;
  {
    auto db = broker::DurableDatabase::Open(dir.path() + "/wal");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Register("a", "F pay").ok());
    ASSERT_TRUE((*db)->Register("b", "F pay").ok());
    ASSERT_TRUE((*db)->Unregister(0).ok());
    auto clock = (*db)->Replace(1, "G !pay");
    ASSERT_TRUE(clock.ok());
    final_clock = *clock;
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = broker::DurableDatabase::Open(dir.path() + "/wal");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), 1u);
  EXPECT_EQ((*db)->last_sequence(), final_clock);
  auto latest = (*db)->Query("G !pay");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->matches, (std::vector<uint32_t>{1}));
  // Recovery replays logged clocks, so time travel survives the reopen.
  auto historic = (*db)->QueryAsOf(2, "F pay");
  ASSERT_TRUE(historic.ok());
  EXPECT_EQ(historic->matches, (std::vector<uint32_t>{0, 1}));

  // One segment (the one this open writes) that registers a contract,
  // replaces it, unregisters it and registers another: its replay is one
  // mixed Apply.
  ASSERT_TRUE((*db)->Register("c", "F pay").ok());
  ASSERT_TRUE((*db)->Replace(2, "G !pay & F ship").ok());
  ASSERT_TRUE((*db)->Unregister(2).ok());
  ASSERT_TRUE((*db)->Register("d", "F ship").ok());
  const std::vector<std::string> queries = {"F pay", "G !pay", "F ship"};
  auto observe = [&](const broker::DurableDatabase& d) {
    std::ostringstream image;
    EXPECT_TRUE(broker::SaveSnapshot(*d.Snapshot(), &image).ok());
    std::vector<std::vector<uint32_t>> as_of;
    for (uint64_t s = 1; s <= d.last_sequence(); ++s) {
      for (const std::string& q : queries) {
        as_of.push_back(Matches(d.database(), q, s));
      }
    }
    return std::make_pair(image.str(), as_of);
  };
  const auto live = observe(**db);
  EXPECT_TRUE((*db)->Close().ok());
  auto reopened = broker::DurableDatabase::Open(dir.path() + "/wal");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto replayed = observe(**reopened);
  EXPECT_TRUE(replayed.first == live.first)
      << "replayed image differs from the live one";
  EXPECT_EQ(replayed.second, live.second);
  EXPECT_EQ((*reopened)->last_sequence(), 8u);
  EXPECT_TRUE((*reopened)->Close().ok());
}

TEST(LifecycleTest, MixedApplyBatchEqualsSingleMutations) {
  // One Apply of a mixed batch — including a Replace and an Unregister of
  // contracts registered earlier in the same batch — lands exactly where
  // the same mutations one call at a time do.
  ContractDatabase single;
  ASSERT_TRUE(single.Register("a", "F pay").ok());
  ASSERT_TRUE(single.Register("b", "G !pay").ok());
  ASSERT_TRUE(single.Replace(0, "F ship").ok());
  ASSERT_TRUE(single.Unregister(1).ok());
  ASSERT_TRUE(single.Register("c", "F pay & F ship").ok());

  ContractDatabase batched;
  std::vector<wal::Record> batch = {
      wal::Record::Register(0, 0, 0, "a", "F pay"),
      wal::Record::Register(0, 0, 0, "b", "G !pay"),
      wal::Record::Replace(0, 0, 0, "F ship"),
      wal::Record::Unregister(0, 0, 1),
      wal::Record::Register(0, 0, 0, "c", "F pay & F ship"),
  };
  ASSERT_TRUE(batched.Apply(&batch, 2).ok());
  // Ids and clocks are written back into the records.
  const std::vector<uint32_t> ids = {0, 1, 0, 1, 2};
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].contract_id, ids[i]) << "record " << i;
    EXPECT_EQ(batch[i].clock, i + 1) << "record " << i;
  }
  std::ostringstream want, got;
  ASSERT_TRUE(broker::SaveSnapshot(*single.Snapshot(), &want).ok());
  ASSERT_TRUE(broker::SaveSnapshot(*batched.Snapshot(), &got).ok());
  EXPECT_TRUE(want.str() == got.str());
}

TEST(LifecycleTest, DurableMixedBatchIsAllOrNothing) {
  testing::TempDir dir("lcatomic");
  const std::string wal_dir = dir.path() + "/wal";
  auto db = broker::DurableDatabase::Open(wal_dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Register("a", "F pay").ok());
  ASSERT_TRUE((*db)->Register("b", "G !pay").ok());
  // Every file of the WAL directory, names and bytes.
  auto log_image = [&] {
    std::string image;
    auto names = util::ListDir(wal_dir);
    EXPECT_TRUE(names.ok());
    std::sort(names->begin(), names->end());
    for (const std::string& name : *names) {
      auto bytes = util::ReadFileToString(wal_dir + "/" + name);
      EXPECT_TRUE(bytes.ok());
      image += name + ":" + *bytes;
    }
    return image;
  };

  // Each batch fails on its last record, after records that would register
  // a contract citing a brand-new event and retire another.
  const std::vector<std::vector<wal::Record>> failing = {
      // Replace of an id the same batch unregistered.
      {wal::Record::Register(0, 0, 0, "x", "F fresh"),
       wal::Record::Unregister(0, 0, 0),
       wal::Record::Replace(0, 0, 0, "G fresh")},
      // An explicit clock that does not advance.
      {wal::Record::Register(0, 0, 0, "y", "F novel"),
       wal::Record::Replace(0, 0, 1, "F novel"),
       wal::Record::Unregister(0, 3, 1)},
  };
  for (std::vector<wal::Record> batch : failing) {
    const auto before = (*db)->Snapshot();
    const size_t vocabulary = before->vocabulary().size();
    const std::string log = log_image();
    const Status status = (*db)->Apply(&batch);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ((*db)->Snapshot().get(), before.get());
    EXPECT_EQ((*db)->database().vocabulary().size(), vocabulary);
    EXPECT_EQ((*db)->op_count(), 2u);
    EXPECT_EQ((*db)->last_sequence(), 2u);
    EXPECT_TRUE(log_image() == log) << "the failed batch reached the log";
  }
  EXPECT_TRUE((*db)->Query("F fresh").status().IsNotFound());
  EXPECT_TRUE((*db)->Close().ok());

  // Nothing reached the log: a reopen replays the two registrations only.
  auto reopened = broker::DurableDatabase::Open(wal_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->op_count(), 2u);
  EXPECT_EQ((*reopened)->recovery_stats().records_replayed, 2u);
  EXPECT_TRUE((*reopened)->Close().ok());
}

TEST(LifecycleTest, CheckpointRetentionRaisesTheAsOfFloor) {
  testing::TempDir dir("lcretain");
  broker::DatabaseOptions options;
  options.retention.keep_history_seqs = 1;
  auto db = broker::DurableDatabase::Open(dir.path() + "/wal", {}, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Register("a", "F pay").ok());   // clock 1
  ASSERT_TRUE((*db)->Replace(0, "G !pay").ok());     // clock 2
  ASSERT_TRUE((*db)->Replace(0, "F pay").ok());      // clock 3
  ASSERT_TRUE((*db)->Checkpoint().ok());             // prunes below 3 - 1

  // Below the floor every read surface refuses alike: the one as-of
  // resolver answers for single queries, parallel batches and stream pins.
  EXPECT_TRUE((*db)->QueryAsOf(1, "F pay").status().IsInvalidArgument());
  QueryOptions below;
  below.as_of = 1;
  below.threads = 4;
  EXPECT_TRUE((*db)->QueryBatch({"F pay", "G !pay"}, below)
                  .status()
                  .IsInvalidArgument());
  monitor::StreamOptions pin;
  pin.as_of = 1;
  EXPECT_TRUE((*db)->StreamOpen("audit", pin).status().IsInvalidArgument());
  auto kept = (*db)->QueryAsOf(2, "G !pay");
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept->matches, (std::vector<uint32_t>{0}));
  EXPECT_TRUE((*db)->Close().ok());
}

TEST(LifecycleTest, ShardedRouterRoutesLifecycleAndMergesAsOf) {
  testing::TempDir dir("lcshard");
  broker::DatabaseOptions options;
  options.shards = 2;
  auto db = shard::ShardedDatabase::Open(dir.path() + "/db", {}, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<uint32_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = (*db)->Register("s" + std::to_string(i), "F pay");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_EQ((*db)->last_sequence(), 4u);

  auto gone = (*db)->Unregister(ids[1]);           // clock 5
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  EXPECT_EQ(*gone, 5u);
  auto swapped = (*db)->Replace(ids[2], "G !pay");  // clock 6
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(*swapped, 6u);

  EXPECT_TRUE((*db)->Unregister(ids[1]).status().IsNotFound());
  EXPECT_TRUE((*db)->Replace(99, "F pay").status().IsNotFound());

  auto latest = (*db)->Query("F pay");
  ASSERT_TRUE(latest.ok());
  std::vector<uint32_t> want = {ids[0], ids[3]};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(latest->matches, want);

  // Scatter-gather as_of: every shard answers at the same global clock.
  auto before = (*db)->QueryAsOf(4, "F pay");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  std::vector<uint32_t> all = ids;
  std::sort(all.begin(), all.end());
  EXPECT_EQ(before->matches, all);
  auto mid = (*db)->QueryAsOf(5, "F pay");
  ASSERT_TRUE(mid.ok());
  std::vector<uint32_t> without = {ids[0], ids[2], ids[3]};
  std::sort(without.begin(), without.end());
  EXPECT_EQ(mid->matches, without);
  EXPECT_TRUE((*db)->Close().ok());
}

}  // namespace
}  // namespace ctdb
