// A contract's automaton depends only on its text and the translate options
// (DESIGN.md §14): Register, RegisterBatch at any thread count, Replace with
// the same text and WAL recovery all build it byte-identically. A sharded
// database therefore reports the same stream verdicts as an unsharded one.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automata/serialize.h"
#include "broker/database.h"
#include "broker/durable.h"
#include "monitor/session.h"
#include "shard/sharded.h"
#include "testing/temp_dir.h"
#include "workload/events.h"
#include "workload/spec.h"

namespace ctdb::broker {
namespace {

using ::ctdb::testing::TempDir;
using Entries = std::vector<ContractDatabase::BatchEntry>;

constexpr size_t kEventContracts = 200;

wal::DurabilityOptions FastOptions() {
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;
  return options;
}

/// The automaton is all these tests compare, so skip the precomputations
/// built from it.
DatabaseOptions AutomatonOnly(size_t threads = 1) {
  DatabaseOptions options;
  options.build_projections = false;
  options.build_prefilter = false;
  options.threads = threads;
  return options;
}

/// 200 event-pattern contracts (seed 1, two properties each), then, with
/// `with_simple`, the paper's simple contracts at scale 0.02.
Entries Workload(bool with_simple) {
  Vocabulary vocab;
  ltl::FormulaFactory factory;
  Entries entries;
  workload::GeneratorOptions options;
  options.properties = 2;
  workload::EventSpecGenerator events(options, /*seed=*/1, &vocab, &factory);
  for (size_t i = 0; i < kEventContracts; ++i) {
    auto spec = events.Next();
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    if (!spec.ok()) return {};
    entries.push_back({"event-" + std::to_string(i), spec->text});
  }
  if (!with_simple) return entries;
  const workload::DatasetSpec simple = workload::ScaledDatasets(0.02)[0];
  auto specs = workload::GenerateDataset(simple, &vocab, &factory);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  if (!specs.ok()) return {};
  for (size_t i = 0; i < specs->size(); ++i) {
    entries.push_back({"simple-" + std::to_string(i), (*specs)[i].text});
  }
  return entries;
}

/// Serialized automaton of every contract, in id order.
std::vector<std::string> Automata(const ContractDatabase& db) {
  const auto snapshot = db.Snapshot();
  std::vector<std::string> out;
  for (uint32_t id = 0; id < snapshot->slot_count(); ++id) {
    out.push_back(automata::Serialize(snapshot->contract(id).automaton(),
                                      snapshot->vocabulary()));
  }
  return out;
}

void ExpectSameAutomata(const std::vector<std::string>& expected,
                        const std::vector<std::string>& actual,
                        const std::string& how) {
  ASSERT_EQ(actual.size(), expected.size()) << how;
  size_t differing = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (actual[i] != expected[i]) ++differing;
  }
  EXPECT_EQ(differing, 0u) << differing << " of " << expected.size()
                           << " automata differ under " << how;
}

/// Every test below compares one way of building the workload against a
/// parallel RegisterBatch — the cheapest reference to build.
class RegistrationDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    entries_ = Workload(/*with_simple=*/true);
    ASSERT_EQ(entries_.size(), kEventContracts + 60);
    ContractDatabase reference(AutomatonOnly());
    ASSERT_TRUE(reference.RegisterBatch(entries_, /*threads=*/4).ok());
    expected_ = Automata(reference);
  }

  Entries entries_;
  std::vector<std::string> expected_;
};

TEST_F(RegistrationDeterminismTest, RegisterMatchesBatch) {
  ContractDatabase db(AutomatonOnly());
  for (const auto& entry : entries_) {
    ASSERT_TRUE(db.Register(entry.name, entry.ltl_text).ok());
  }
  ExpectSameAutomata(expected_, Automata(db), "Register");
}

TEST_F(RegistrationDeterminismTest, SerialBatchMatchesParallelBatch) {
  ContractDatabase db(AutomatonOnly());
  ASSERT_TRUE(db.RegisterBatch(entries_, /*threads=*/1).ok());
  ExpectSameAutomata(expected_, Automata(db), "RegisterBatch threads=1");
}

TEST_F(RegistrationDeterminismTest, ReplaceWithSameTextMatchesBatch) {
  ContractDatabase db(AutomatonOnly());
  ASSERT_TRUE(db.RegisterBatch(entries_, /*threads=*/4).ok());
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    ASSERT_TRUE(db.Replace(id, entries_[id].ltl_text).ok());
  }
  ExpectSameAutomata(expected_, Automata(db), "Replace");
}

TEST_F(RegistrationDeterminismTest, WalRecoveryMatchesBatch) {
  TempDir dir("determinism");
  {
    auto durable = DurableDatabase::Open(dir.path(), FastOptions(),
                                         AutomatonOnly(/*threads=*/4));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    ASSERT_TRUE((*durable)->RegisterBatch(entries_).ok());
    ASSERT_TRUE((*durable)->Close().ok());
  }
  auto recovered = RecoverDatabase(dir.path(), AutomatonOnly());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameAutomata(expected_, Automata(**recovered), "WAL recovery");
}

TEST(RegistrationDeterminismStreamTest, ShardedVerdictsMatchUnsharded) {
  const Entries entries = Workload(/*with_simple=*/false);
  ASSERT_EQ(entries.size(), kEventContracts);

  ContractDatabase unsharded(AutomatonOnly());
  for (const auto& entry : entries) {
    ASSERT_TRUE(unsharded.Register(entry.name, entry.ltl_text).ok());
  }
  TempDir dir("determinism");
  DatabaseOptions topology = AutomatonOnly();
  topology.shards = 2;
  auto sharded = shard::ShardedDatabase::Open(dir.path(), FastOptions(),
                                              topology);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE((*sharded)->RegisterBatch(entries).ok());

  // Many short streams: verdicts on short prefixes are where automata with
  // the same language but different structure disagree.
  workload::TraceGenerator trace({}, /*seed=*/1);
  for (size_t stream = 0; stream < 32; ++stream) {
    const std::string name = "s" + std::to_string(stream);
    auto session = monitor::StreamSession::Open(unsharded.Snapshot(), {});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE((*sharded)->StreamOpen(name).ok());
    for (size_t append = 0; append < 2; ++append) {
      const monitor::EventBatch batch = trace.NextBatch(16);
      const monitor::StreamAppendResult expected = (*session)->Append(batch);
      auto got = (*sharded)->StreamAppend(name, batch);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->deltas, expected.deltas)
          << "stream " << stream << " append " << append;
    }
    auto closed = (*sharded)->StreamClose(name);
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    EXPECT_EQ(closed->verdicts, (*session)->Summary().verdicts)
        << "stream " << stream;
  }
}

}  // namespace
}  // namespace ctdb::broker
