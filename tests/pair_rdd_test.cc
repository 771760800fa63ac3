// Pair-RDD operation edge cases: empty partitions, key skew, duplicate keys,
// custom combiners, and partitioning discipline.
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <any>
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"

namespace blaze {
namespace {

EngineConfig SmallConfig() {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = MiB(8);
  return config;
}

TEST(PairRddTest, EmptyPartitionsFlowThroughShuffle) {
  EngineContext engine(SmallConfig());
  // All data lives in partition 0; others generate empty vectors.
  auto rdd = Generate<std::pair<uint32_t, int>>(&engine, "sparse", 4, [](uint32_t p) {
    std::vector<std::pair<uint32_t, int>> rows;
    if (p == 0) {
      for (uint32_t k = 0; k < 10; ++k) {
        rows.emplace_back(k, 1);
      }
    }
    return rows;
  });
  auto reduced =
      ReduceByKey<uint32_t, int>(rdd, [](const int& a, const int& b) { return a + b; }, 4);
  EXPECT_EQ(reduced->Count(), 10u);
}

TEST(PairRddTest, EmptyDatasetProducesEmptyResults) {
  EngineContext engine(SmallConfig());
  auto rdd = Generate<std::pair<uint32_t, int>>(
      &engine, "empty", 3, [](uint32_t) { return std::vector<std::pair<uint32_t, int>>{}; });
  auto grouped = GroupByKey<uint32_t, int>(rdd, 2);
  EXPECT_EQ(grouped->Count(), 0u);
  EXPECT_TRUE(grouped->Collect().empty());
  auto reduced = ReduceByKey<uint32_t, int>(
      rdd, [](const int& a, const int& b) { return a + b; }, 2);
  EXPECT_EQ(reduced->Reduce([](const auto& a, const auto&) { return a; }), std::nullopt);
}

TEST(PairRddTest, SingleHotKeyLandsInOnePartition) {
  EngineContext engine(SmallConfig());
  auto rdd = Generate<std::pair<uint32_t, int>>(&engine, "hot", 4, [](uint32_t) {
    return std::vector<std::pair<uint32_t, int>>(1000, {42, 1});
  });
  auto reduced =
      ReduceByKey<uint32_t, int>(rdd, [](const int& a, const int& b) { return a + b; }, 4);
  auto rows = reduced->Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 42u);
  EXPECT_EQ(rows[0].second, 4000);
}

TEST(PairRddTest, JoinRespectsDuplicateMultiplicity) {
  EngineContext engine(SmallConfig());
  auto left = Generate<std::pair<uint32_t, int>>(&engine, "dupl", 2, [](uint32_t p) {
    std::vector<std::pair<uint32_t, int>> rows;
    for (uint32_t k = 0; k < 10; ++k) {
      if (KeyPartition(k, 2) == p) {
        rows.emplace_back(k, 1);
        rows.emplace_back(k, 2);  // two left rows per key
      }
    }
    return rows;
  });
  left->set_hash_partitioned(true);
  auto right = Generate<std::pair<uint32_t, int>>(&engine, "dupr", 2, [](uint32_t p) {
    std::vector<std::pair<uint32_t, int>> rows;
    for (uint32_t k = 0; k < 10; ++k) {
      if (KeyPartition(k, 2) == p) {
        rows.emplace_back(k, 10);
        rows.emplace_back(k, 20);
        rows.emplace_back(k, 30);  // three right rows per key
      }
    }
    return rows;
  });
  right->set_hash_partitioned(true);
  auto joined = JoinCoPartitioned(left, right);
  EXPECT_EQ(joined->Count(), 10u * 2u * 3u);  // cross product per key
}

TEST(PairRddTest, JoinIsInner) {
  EngineContext engine(SmallConfig());
  auto left = Parallelize<std::pair<uint32_t, int>>(&engine, "l", {{1, 1}, {2, 2}}, 1);
  auto right = Parallelize<std::pair<uint32_t, int>>(&engine, "r", {{2, 20}, {3, 30}}, 1);
  left->set_hash_partitioned(true);
  right->set_hash_partitioned(true);
  auto rows = JoinCoPartitioned(left, right)->Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 2u);
  EXPECT_EQ(rows[0].second, (std::pair<int, int>{2, 20}));
}

TEST(PairRddTest, AggregateByKeyWithCustomCombiner) {
  EngineContext engine(SmallConfig());
  std::vector<std::pair<uint32_t, int>> data;
  for (int i = 0; i < 20; ++i) {
    data.emplace_back(i % 2, i);
  }
  auto rdd = Parallelize<std::pair<uint32_t, int>>(&engine, "agg", data, 4);
  // Combiner keeps the max only.
  auto maxes = AggregateByKey<uint32_t, int, int>(
      rdd, [](const int& v) { return v; },
      [](int& acc, const int& v) { acc = std::max(acc, v); }, 2);
  for (const auto& [key, max] : maxes->Collect()) {
    EXPECT_EQ(max, key == 0 ? 18 : 19);
  }
}

TEST(PairRddTest, MapValuesPreservesKeysAndPartitioning) {
  EngineContext engine(SmallConfig());
  auto base = Parallelize<std::pair<uint32_t, int>>(&engine, "mv", {{5, 1}, {6, 2}}, 2);
  auto reduced = ReduceByKey<uint32_t, int>(
      base, [](const int& a, const int&) { return a; }, 2);
  auto mapped = MapValues(reduced, [](const int& v) { return v * 10; });
  EXPECT_TRUE(mapped->hash_partitioned());
  std::set<uint32_t> keys;
  for (const auto& [key, value] : mapped->Collect()) {
    keys.insert(key);
    EXPECT_EQ(value % 10, 0);
  }
  EXPECT_EQ(keys, (std::set<uint32_t>{5, 6}));
}

TEST(PairRddTest, ShuffledOutputIsSortedByKey) {
  EngineContext engine(SmallConfig());
  std::vector<std::pair<uint32_t, int>> data;
  for (uint32_t k = 100; k > 0; --k) {
    data.emplace_back(k, 1);
  }
  auto rdd = Parallelize<std::pair<uint32_t, int>>(&engine, "sorted", data, 4);
  auto reduced = ReduceByKey<uint32_t, int>(
      rdd, [](const int& a, const int& b) { return a + b; }, 2);
  auto results = engine.RunJob(reduced, [](const BlockPtr& block) -> std::any {
    return RowsOf<std::pair<uint32_t, int>>(block);
  });
  for (const std::any& result : results) {
    const auto rows = std::any_cast<std::vector<std::pair<uint32_t, int>>>(result);
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LT(rows[i - 1].first, rows[i].first);
    }
  }
}

TEST(PairRddTest, KeyPartitionIsStableAndInRange) {
  for (uint32_t key = 0; key < 1000; ++key) {
    const uint32_t p = KeyPartition(key, 7);
    EXPECT_LT(p, 7u);
    EXPECT_EQ(p, KeyPartition(key, 7));  // deterministic
  }
}

TEST(PairRddTest, KeyPartitionSpreadsKeys) {
  std::vector<int> counts(8, 0);
  for (uint32_t key = 0; key < 8000; ++key) {
    ++counts[KeyPartition(key, 8)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(PairRddTest, PartitionByKeyRoundTripPreservesMultiset) {
  EngineContext engine(SmallConfig());
  std::vector<std::pair<uint32_t, int>> data;
  for (int i = 0; i < 50; ++i) {
    data.emplace_back(i % 5, i);
  }
  auto rdd = Parallelize<std::pair<uint32_t, int>>(&engine, "pbk", data, 3);
  auto partitioned = PartitionByKey(rdd, 4);
  auto rows = partitioned->Collect();
  std::multiset<int> got;
  std::multiset<int> want;
  for (const auto& [k, v] : rows) {
    got.insert(v);
  }
  for (const auto& [k, v] : data) {
    want.insert(v);
  }
  EXPECT_EQ(got, want);
}

TEST(PairRddTest, JoinRequiresHashPartitionedInputs) {
  EngineContext engine(SmallConfig());
  auto left = Parallelize<std::pair<uint32_t, int>>(&engine, "nl", {{1, 1}}, 1);
  auto right = Parallelize<std::pair<uint32_t, int>>(&engine, "nr", {{1, 2}}, 1);
  // Neither input declared hash-partitioned: checked error.
  EXPECT_DEATH((void)JoinCoPartitioned(left, right), "hash-partitioned");
}

// --- keyed-operator oracle ------------------------------------------------------------
//
// The keyed operators once kept their per-key state in node-based hash maps.
// These reference bodies are those hash-map versions, verbatim apart from
// taking rows directly; the engine's rows, and their order, must match them
// bit for bit.

template <typename K, typename V, typename C>
std::vector<std::pair<K, C>> ReferenceAggregate(
    const std::vector<std::vector<std::pair<K, V>>>& buckets,
    const std::function<C(const V&)>& create_, const std::function<void(C&, const V&)>& merge_) {
  std::unordered_map<K, C> agg;
  for (const auto& bucket : buckets) {
    for (const auto& [key, value] : bucket) {
      auto it = agg.find(key);
      if (it == agg.end()) {
        agg.emplace(key, create_(value));
      } else {
        merge_(it->second, value);
      }
    }
  }
  std::vector<std::pair<K, C>> rows;
  rows.reserve(agg.size());
  for (auto& [key, combiner] : agg) {
    rows.emplace_back(key, std::move(combiner));
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return rows;
}

template <typename K, typename V, typename W>
std::vector<std::pair<K, std::pair<V, W>>> ReferenceJoin(
    const std::vector<std::pair<K, V>>& left_rows, const std::vector<std::pair<K, W>>& right_rows) {
  std::unordered_map<K, std::vector<const W*>> right_index;
  for (const auto& [key, value] : right_rows) {
    right_index[key].push_back(&value);
  }
  std::vector<std::pair<K, std::pair<V, W>>> out;
  for (const auto& [key, value] : left_rows) {
    auto it = right_index.find(key);
    if (it == right_index.end()) {
      continue;
    }
    for (const W* w : it->second) {
      out.emplace_back(key, std::pair<V, W>(value, *w));
    }
  }
  return out;
}

template <typename K, typename V, typename W>
std::vector<std::pair<K, std::pair<std::vector<V>, std::vector<W>>>> ReferenceCoGroup(
    const std::vector<std::pair<K, V>>& left_rows, const std::vector<std::pair<K, W>>& right_rows) {
  using Groups = std::pair<std::vector<V>, std::vector<W>>;
  std::unordered_map<K, Groups> groups;
  for (const auto& [key, value] : left_rows) {
    groups[key].first.push_back(value);
  }
  for (const auto& [key, value] : right_rows) {
    groups[key].second.push_back(value);
  }
  std::vector<std::pair<K, Groups>> out;
  out.reserve(groups.size());
  for (auto& [key, group] : groups) {
    out.emplace_back(key, std::move(group));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

// Bitwise equality: doubles compare by representation, so a different fold
// order (or -0.0 for 0.0) is a mismatch.
bool SameBits(uint32_t a, uint32_t b) { return a == b; }
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}
template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b);
template <typename A, typename B>
bool SameBits(const std::pair<A, B>& a, const std::pair<A, B>& b) {
  return SameBits(a.first, b.first) && SameBits(a.second, b.second);
}
template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

template <typename T>
void ExpectBitIdentical(const std::vector<T>& got, const std::vector<T>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameBits(got[i], want[i])) << what << ": row " << i << " of " << got.size();
  }
}

// Every partition's rows, in the engine's order.
template <typename T>
std::vector<std::vector<T>> PartitionRows(EngineContext& engine, const RddPtr<T>& rdd) {
  std::vector<std::vector<T>> out;
  for (const std::any& result : engine.RunJob(
           rdd, [](const BlockPtr& block) -> std::any { return RowsOf<T>(block); })) {
    out.push_back(std::any_cast<std::vector<T>>(result));
  }
  return out;
}

using KeyedRows = std::vector<std::pair<uint32_t, double>>;

// Values spanning many magnitudes and both signs, so a double sum depends on
// its fold order.
double WildValue(Rng& rng) {
  const double magnitude = std::pow(10.0, static_cast<double>(rng.NextU64(17)) - 8.0);
  return (rng.NextBool(0.5) ? -1.0 : 1.0) * magnitude * (1.0 + rng.NextDouble());
}

// Map-side partitions of random rows over `distinct_keys` keys; the
// partitions listed in `empty` get none.
std::vector<KeyedRows> RandomPartitions(uint64_t seed, uint32_t num_partitions,
                                        size_t rows_per_partition, uint32_t distinct_keys,
                                        const std::set<uint32_t>& empty) {
  Rng rng(seed);
  std::vector<KeyedRows> parts(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    if (empty.contains(p)) {
      continue;
    }
    for (size_t i = 0; i < rows_per_partition; ++i) {
      parts[p].emplace_back(static_cast<uint32_t>(rng.NextU64(distinct_keys)), WildValue(rng));
    }
  }
  return parts;
}

// Random rows already placed by KeyPartition (so co-partitioned), with
// duplicate keys and in shuffled order within each partition.
std::vector<KeyedRows> RandomCoPartitioned(uint64_t seed, uint32_t num_partitions,
                                           size_t num_rows, uint32_t distinct_keys,
                                           const std::set<uint32_t>& empty) {
  Rng rng(seed);
  std::vector<KeyedRows> parts(num_partitions);
  for (size_t i = 0; i < num_rows; ++i) {
    const auto key = static_cast<uint32_t>(rng.NextU64(distinct_keys));
    const uint32_t p = KeyPartition(key, num_partitions);
    if (!empty.contains(p)) {
      parts[p].emplace_back(key, WildValue(rng));
    }
  }
  for (KeyedRows& part : parts) {
    rng.Shuffle(part);
  }
  return parts;
}

RddPtr<std::pair<uint32_t, double>> FromPartitions(EngineContext& engine, const std::string& name,
                                                   std::vector<KeyedRows> parts) {
  auto shared = std::make_shared<const std::vector<KeyedRows>>(std::move(parts));
  const auto count = static_cast<uint32_t>(shared->size());
  return Generate<std::pair<uint32_t, double>>(&engine, name, count,
                                               [shared](uint32_t p) { return (*shared)[p]; });
}

// The reduce-side stream of a hash shuffle: for reduce partition r, each map
// partition's rows bound for r, map partitions in order.
std::vector<std::vector<KeyedRows>> ShuffleStreams(const std::vector<KeyedRows>& maps,
                                                   uint32_t num_reduce) {
  std::vector<std::vector<KeyedRows>> streams(num_reduce, std::vector<KeyedRows>(maps.size()));
  for (size_t m = 0; m < maps.size(); ++m) {
    for (const auto& row : maps[m]) {
      streams[KeyPartition(row.first, num_reduce)][m].push_back(row);
    }
  }
  return streams;
}

// Seeds and shapes: several reduce partitions (the bucketizer's scatter path)
// and one (its aliasing path); thousands of distinct keys per reduce
// partition, far past the index's initial 16 slots.
struct ShuffleShape {
  uint64_t seed;
  uint32_t num_map;
  uint32_t num_reduce;
  uint32_t distinct_keys;
};
constexpr ShuffleShape kShuffleShapes[] = {
    {11, 5, 3, 3000}, {12, 4, 1, 2500}, {13, 6, 4, 40}, {14, 3, 7, 9000}};

TEST(KeyedOracleTest, ReduceByKeyFoldsInStreamOrder) {
  for (const ShuffleShape& shape : kShuffleShapes) {
    EngineContext engine(SmallConfig());
    const auto maps = RandomPartitions(shape.seed, shape.num_map, 2000, shape.distinct_keys,
                                       /*empty=*/{1});
    const std::function<double(const double&, const double&)> add =
        [](const double& a, const double& b) { return a + b; };
    auto reduced =
        ReduceByKey<uint32_t, double>(FromPartitions(engine, "oracle.rbk", maps), add,
                                      shape.num_reduce);
    const auto got = PartitionRows(engine, reduced);
    const auto streams = ShuffleStreams(maps, shape.num_reduce);
    ASSERT_EQ(got.size(), shape.num_reduce);
    for (uint32_t r = 0; r < shape.num_reduce; ++r) {
      const auto want = ReferenceAggregate<uint32_t, double, double>(
          streams[r], [](const double& v) { return v; },
          [&add](double& acc, const double& v) { acc = add(acc, v); });
      ExpectBitIdentical(got[r], want,
                         "seed " + std::to_string(shape.seed) + " reduce " + std::to_string(r));
    }
  }
}

TEST(KeyedOracleTest, GroupByKeyKeepsValueOrderInGroups) {
  for (const ShuffleShape& shape : kShuffleShapes) {
    EngineContext engine(SmallConfig());
    const auto maps = RandomPartitions(shape.seed, shape.num_map, 1500, shape.distinct_keys,
                                       /*empty=*/{0, 2});
    auto grouped = GroupByKey<uint32_t, double>(FromPartitions(engine, "oracle.gbk", maps),
                                                shape.num_reduce);
    const auto got = PartitionRows(engine, grouped);
    const auto streams = ShuffleStreams(maps, shape.num_reduce);
    ASSERT_EQ(got.size(), shape.num_reduce);
    for (uint32_t r = 0; r < shape.num_reduce; ++r) {
      const auto want = ReferenceAggregate<uint32_t, double, std::vector<double>>(
          streams[r], [](const double& v) { return std::vector<double>{v}; },
          [](std::vector<double>& acc, const double& v) { acc.push_back(v); });
      ExpectBitIdentical(got[r], want,
                         "seed " + std::to_string(shape.seed) + " reduce " + std::to_string(r));
    }
  }
}

TEST(KeyedOracleTest, AggregateByKeyMatchesReference) {
  // An order-sensitive combiner: a decaying sum next to a running sum.
  using C = std::pair<double, double>;
  const std::function<C(const double&)> create = [](const double& v) { return C{v, v}; };
  const std::function<void(C&, const double&)> merge = [](C& acc, const double& v) {
    acc.first = 0.5 * acc.first + v;
    acc.second += v;
  };
  for (const ShuffleShape& shape : kShuffleShapes) {
    EngineContext engine(SmallConfig());
    const auto maps = RandomPartitions(shape.seed, shape.num_map, 1500, shape.distinct_keys,
                                       /*empty=*/{shape.num_map - 1});
    auto aggregated = AggregateByKey<uint32_t, double, C>(
        FromPartitions(engine, "oracle.abk", maps), create, merge, shape.num_reduce);
    const auto got = PartitionRows(engine, aggregated);
    const auto streams = ShuffleStreams(maps, shape.num_reduce);
    ASSERT_EQ(got.size(), shape.num_reduce);
    for (uint32_t r = 0; r < shape.num_reduce; ++r) {
      const auto want = ReferenceAggregate<uint32_t, double, C>(streams[r], create, merge);
      ExpectBitIdentical(got[r], want,
                         "seed " + std::to_string(shape.seed) + " reduce " + std::to_string(r));
    }
  }
}

// Co-partitioned inputs: duplicate keys on both sides, unsorted rows, an
// empty partition on each side, and keys present on one side only.
struct CoPartitionedInputs {
  std::vector<KeyedRows> left;
  std::vector<KeyedRows> right;
};
CoPartitionedInputs RandomJoinInputs(uint64_t seed, uint32_t num_partitions) {
  return {RandomCoPartitioned(seed, num_partitions, 6000, 2500, /*empty=*/{1}),
          RandomCoPartitioned(seed + 100, num_partitions, 5000, 3000, /*empty=*/{2})};
}

TEST(KeyedOracleTest, JoinCoPartitionedKeepsLeftThenRightOrder) {
  for (uint64_t seed : {21, 22, 23}) {
    EngineContext engine(SmallConfig());
    const uint32_t parts = 4;
    const CoPartitionedInputs in = RandomJoinInputs(seed, parts);
    auto left = FromPartitions(engine, "oracle.jl", in.left);
    auto right = FromPartitions(engine, "oracle.jr", in.right);
    left->set_hash_partitioned(true);
    right->set_hash_partitioned(true);
    const auto got = PartitionRows(engine, JoinCoPartitioned(left, right));
    ASSERT_EQ(got.size(), parts);
    size_t matched = 0;
    for (uint32_t p = 0; p < parts; ++p) {
      const auto want = ReferenceJoin(in.left[p], in.right[p]);
      matched += want.size();
      ExpectBitIdentical(got[p], want,
                         "seed " + std::to_string(seed) + " partition " + std::to_string(p));
    }
    EXPECT_GT(matched, 0u) << "the inputs must share keys";
  }
}

TEST(KeyedOracleTest, CoGroupCoPartitionedMatchesReference) {
  for (uint64_t seed : {31, 32}) {
    EngineContext engine(SmallConfig());
    const uint32_t parts = 3;
    const CoPartitionedInputs in = RandomJoinInputs(seed, parts);
    auto left = FromPartitions(engine, "oracle.cl", in.left);
    auto right = FromPartitions(engine, "oracle.cr", in.right);
    left->set_hash_partitioned(true);
    right->set_hash_partitioned(true);
    const auto got = PartitionRows(engine, CoGroupCoPartitioned(left, right));
    ASSERT_EQ(got.size(), parts);
    for (uint32_t p = 0; p < parts; ++p) {
      ExpectBitIdentical(got[p], ReferenceCoGroup(in.left[p], in.right[p]),
                         "seed " + std::to_string(seed) + " partition " + std::to_string(p));
    }
  }
}

TEST(FlatKeyIndexTest, GrowsPastItsInitialTableAndFindsEveryKey) {
  std::vector<uint32_t> keys;
  FlatKeyIndex<uint32_t> index;
  const auto key_of = [&keys](uint32_t row) -> const uint32_t& { return keys[row]; };
  // Keys sharing their low hash bits (one KeyPartition bucket of 16) are the
  // case a low-bit slot choice would crowd.
  for (uint32_t key = 0; keys.size() < 5000; ++key) {
    if (KeyPartition(key, 16) != 3) {
      continue;
    }
    const auto [row, inserted] = index.Insert(key, key_of);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(row, keys.size());
    keys.push_back(key);
  }
  EXPECT_EQ(index.size(), keys.size());
  for (uint32_t row = 0; row < keys.size(); ++row) {
    EXPECT_EQ(index.Find(keys[row], key_of), row);
    EXPECT_EQ(index.Insert(keys[row], key_of), std::make_pair(row, false));
  }
  EXPECT_EQ(index.Find(keys.back() + 1, key_of), FlatKeyIndex<uint32_t>::kNone);
}

}  // namespace
}  // namespace blaze
