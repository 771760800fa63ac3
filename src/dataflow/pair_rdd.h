// Key-value dataset operations: shuffles (reduceByKey / groupByKey /
// aggregateByKey), narrow value maps, and co-partitioned joins.
//
// Shuffle outputs are hash-partitioned by key with KeyPartition(); any two
// datasets with the same number of partitions that were produced that way are
// co-partitioned, so joins between them are narrow (Spark's partitioner-aware
// join) — the pattern GraphX-style iterative workloads rely on.
#ifndef SRC_DATAFLOW_PAIR_RDD_H_
#define SRC_DATAFLOW_PAIR_RDD_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dataflow/flat_key_index.h"
#include "src/dataflow/rdd.h"

namespace blaze {

// The one hash used for all key partitioning (sources that pre-partition data
// must use it to be co-partitioned with shuffle outputs).
template <typename K>
uint32_t KeyPartition(const K& key, size_t num_partitions) {
  return static_cast<uint32_t>(KeyHash(key) % num_partitions);
}

// Reduce-side dataset of a shuffle: combines per-key values pushed by the map
// stage into one combiner of type C per key.
template <typename K, typename V, typename C>
class ShuffledRdd final : public Rdd<std::pair<K, C>> {
 public:
  using CreateFn = std::function<C(const V&)>;
  using MergeFn = std::function<void(C&, const V&)>;
  // Maps a key to its reduce partition; nullptr = hash partitioning.
  using PartitionerFn = std::function<uint32_t(const K&, size_t)>;

  ShuffledRdd(EngineContext* ctx, std::string name, RddPtr<std::pair<K, V>> parent,
              size_t num_reduce, CreateFn create, MergeFn merge,
              PartitionerFn partitioner = nullptr)
      : Rdd<std::pair<K, C>>(ctx, std::move(name), num_reduce,
                             MakeDeps(ctx, parent, num_reduce, partitioner)),
        num_map_(parent->num_partitions()),
        create_(std::move(create)),
        merge_(std::move(merge)) {
    // Custom partitioners (e.g. range partitioning for sorts) are not
    // co-partitionable with hash-partitioned datasets.
    this->set_hash_partitioned(partitioner == nullptr);
    shuffle_id_ = this->dependencies()[0].shuffle_id;
  }

  BlockPtr Compute(uint32_t index, TaskContext& tc) const override {
    std::vector<BlockPtr> buckets = tc.ReadOrRebuildShuffleBuckets(*this, index);
    size_t total_rows = 0;
    for (const BlockPtr& bucket : buckets) {
      total_rows += RowsOf<std::pair<K, V>>(bucket).size();
    }
    // One combiner per key, dense and in first-seen order; each key's values
    // fold in stream order (bucket by bucket, row by row).
    std::vector<std::pair<K, C>> rows;
    rows.reserve(total_rows);
    FlatKeyIndex<K> index_of;
    const auto key_of = [&rows](uint32_t row) -> const K& { return rows[row].first; };
    for (const BlockPtr& bucket : buckets) {
      for (const auto& [key, value] : RowsOf<std::pair<K, V>>(bucket)) {
        const auto [row, inserted] = index_of.Insert(key, key_of);
        if (inserted) {
          rows.emplace_back(key, create_(value));
        } else {
          merge_(rows[row].second, value);
        }
      }
    }
    // Output sorted by key (SortByKey's range partitions rely on it).
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // The reserve assumed unique keys; return what many duplicates left unused.
    if (rows.size() < rows.capacity() / 2) {
      rows.shrink_to_fit();
    }
    return MakeBlock(std::move(rows));
  }

 private:
  static std::vector<Dependency> MakeDeps(EngineContext* ctx,
                                          const RddPtr<std::pair<K, V>>& parent,
                                          size_t num_reduce, PartitionerFn partitioner) {
    Dependency dep;
    dep.parent = parent;
    dep.is_shuffle = true;
    dep.shuffle_id = ctx->shuffle().NewShuffleId();
    dep.num_reduce = num_reduce;
    // The bucketizer below iterates representation-agnostically, so the
    // scheduler may feed it a cached columnar map output directly.
    dep.accepts_columnar = BlazeColumns<std::pair<K, V>>::kEnabled;
    dep.bucketizer = [partitioner = std::move(partitioner)](const BlockPtr& block,
                                                            size_t reduce_count) {
      if (reduce_count == 1) {
        // Every row lands in the single bucket: alias the map output's rows
        // instead of copying them. The owned view keeps the full payload
        // charge — the shuffle service retains these rows past the map
        // output's lifetime and bills them to the execution ledger. A
        // columnar map output pays one recomposition here (the bucket must
        // hold object rows for the reduce side).
        const BlockPtr rows_block =
            block->representation() == BlockRepresentation::kObjectRows
                ? block
                : block->MaterializeRows();
        return std::vector<BlockPtr>{
            MakeOwnedBlockView(SharedRowsOf<std::pair<K, V>>(rows_block))};
      }
      // Two passes: bucket every row once and count, then scatter into
      // buckets reserved to their exact sizes.
      std::vector<uint32_t> bucket_of;
      bucket_of.reserve(block->NumRows());
      std::vector<size_t> counts(reduce_count, 0);
      ForEachRow<std::pair<K, V>>(block, [&](const std::pair<K, V>& row) {
        const uint32_t bucket = partitioner ? partitioner(row.first, reduce_count)
                                            : KeyPartition(row.first, reduce_count);
        bucket_of.push_back(bucket);
        ++counts[bucket];
      });
      std::vector<std::vector<std::pair<K, V>>> buckets(reduce_count);
      for (size_t b = 0; b < reduce_count; ++b) {
        buckets[b].reserve(counts[b]);
      }
      size_t next = 0;
      ForEachRow<std::pair<K, V>>(block, [&](const std::pair<K, V>& row) {
        buckets[bucket_of[next++]].push_back(row);
      });
      std::vector<BlockPtr> out;
      out.reserve(reduce_count);
      for (auto& bucket : buckets) {
        out.push_back(MakeBlock(std::move(bucket)));
      }
      return out;
    };
    return {std::move(dep)};
  }

  int shuffle_id_;
  size_t num_map_;
  CreateFn create_;
  MergeFn merge_;
};

// --- shuffle transformations ---------------------------------------------------------

template <typename K, typename V, typename C>
RddPtr<std::pair<K, C>> AggregateByKey(RddPtr<std::pair<K, V>> parent,
                                       typename ShuffledRdd<K, V, C>::CreateFn create,
                                       typename ShuffledRdd<K, V, C>::MergeFn merge,
                                       size_t num_reduce, std::string name = "aggregateByKey") {
  return NewRdd<ShuffledRdd<K, V, C>>(parent->context(), std::move(name), parent, num_reduce,
                                      std::move(create), std::move(merge));
}

template <typename K, typename V>
RddPtr<std::pair<K, V>> ReduceByKey(RddPtr<std::pair<K, V>> parent,
                                    std::function<V(const V&, const V&)> fn, size_t num_reduce,
                                    std::string name = "reduceByKey") {
  return AggregateByKey<K, V, V>(
      parent, [](const V& v) { return v; },
      [fn](V& acc, const V& v) { acc = fn(acc, v); }, num_reduce, std::move(name));
}

template <typename K, typename V>
RddPtr<std::pair<K, std::vector<V>>> GroupByKey(RddPtr<std::pair<K, V>> parent,
                                                size_t num_reduce,
                                                std::string name = "groupByKey") {
  return AggregateByKey<K, V, std::vector<V>>(
      parent, [](const V& v) { return std::vector<V>{v}; },
      [](std::vector<V>& acc, const V& v) { acc.push_back(v); }, num_reduce, std::move(name));
}

// --- narrow pair transformations -------------------------------------------------------

// Applies fn to values, preserving keys and partitioning.
template <typename K, typename V, typename F>
auto MapValues(RddPtr<std::pair<K, V>> parent, F fn, std::string name = "mapValues")
    -> RddPtr<std::pair<K, std::invoke_result_t<F, const V&>>> {
  using U = std::invoke_result_t<F, const V&>;
  using P = std::pair<K, V>;
  using Q = std::pair<K, U>;
  // Columnar kernel for fixed-width pairs: densify the selection while
  // copying keys through and transforming values, one tight loop per batch.
  typename PipelineRdd<Q>::VecFn vec = nullptr;
  if constexpr (kFixedWidthRow<P> && kFixedWidthRow<Q>) {
    vec = [parent, fn](TaskContext& tc, uint32_t index, ColumnSink<Q>& sink) {
      std::vector<Q> out(kVectorBatchRows);
      auto link = MakeColumnSink<P>([&fn, &sink, &out](const ColumnBatch<P>& in) {
        if (in.count > out.size()) {
          out.resize(in.count);
        }
        for (uint32_t i = 0; i < in.count; ++i) {
          const P& row = in.values[in.RowIndex(i)];
          out[i].first = row.first;
          out[i].second = fn(row.second);
        }
        sink.PushBatch(ColumnBatch<Q>{out.data(), nullptr, in.count});
      });
      return parent->StreamBatches(tc, index, link);
    };
  }
  auto result = NewRdd<PipelineRdd<Q>>(
      parent->context(), std::move(name), parent->num_partitions(),
      std::vector<Dependency>{Dependency{parent}},
      [parent, fn](TaskContext& tc, uint32_t index, RowSink<Q>& sink) {
        auto link = MakeSink<P>([&fn, &sink](auto&& row) {
          sink.Push(Q(row.first, fn(row.second)));
        });
        parent->StreamRows(tc, index, link);
      },
      nullptr, std::move(vec));
  result->set_hash_partitioned(parent->hash_partitioned());
  return result;
}

// Inner join of two co-partitioned datasets: a narrow, per-partition hash
// join (Spark's partitioner-aware join). Both inputs must be hash-partitioned
// with the same partition count.
template <typename K, typename V, typename W>
RddPtr<std::pair<K, std::pair<V, W>>> JoinCoPartitioned(RddPtr<std::pair<K, V>> left,
                                                        RddPtr<std::pair<K, W>> right,
                                                        std::string name = "join") {
  BLAZE_CHECK_EQ(left->num_partitions(), right->num_partitions());
  BLAZE_CHECK(left->hash_partitioned() && right->hash_partitioned())
      << "JoinCoPartitioned requires hash-partitioned inputs";
  auto result = NewRdd<TransformRdd<std::pair<K, std::pair<V, W>>>>(
      left->context(), std::move(name), left->num_partitions(),
      std::vector<Dependency>{Dependency{left}, Dependency{right}},
      [left, right](TaskContext& tc, uint32_t index) {
        const BlockPtr left_block = tc.GetBlock(*left, index);
        const auto& left_rows = RowsOf<std::pair<K, V>>(left_block);
        const BlockPtr right_block = tc.GetBlock(*right, index);
        const auto& right_rows = RowsOf<std::pair<K, W>>(right_block);
        constexpr uint32_t kEnd = FlatKeyIndex<K>::kNone;
        // Per distinct right key, the first right row holding it; next[r]
        // chains the key's later rows. Indexing the rows back to front leaves
        // every chain in right-side order.
        FlatKeyIndex<K> index_of(right_rows.size());
        std::vector<uint32_t> head;
        std::vector<uint32_t> next(right_rows.size(), kEnd);
        const auto key_of = [&](uint32_t k) -> const K& { return right_rows[head[k]].first; };
        for (size_t r = right_rows.size(); r-- > 0;) {
          const auto [k, inserted] = index_of.Insert(right_rows[r].first, key_of);
          if (inserted) {
            head.push_back(static_cast<uint32_t>(r));
          } else {
            next[r] = head[k];
            head[k] = static_cast<uint32_t>(r);
          }
        }
        std::vector<std::pair<K, std::pair<V, W>>> out;
        out.reserve(left_rows.size());
        for (const auto& [key, value] : left_rows) {
          const uint32_t k = index_of.Find(key, key_of);
          if (k == kEnd) {
            continue;
          }
          for (uint32_t r = head[k]; r != kEnd; r = next[r]) {
            out.emplace_back(key, std::pair<V, W>(value, right_rows[r].second));
          }
        }
        return out;
      });
  result->set_hash_partitioned(true);
  return result;
}

// Co-group of two co-partitioned datasets: per key, the values from both
// sides (including keys present on only one side — unlike the inner join).
template <typename K, typename V, typename W>
RddPtr<std::pair<K, std::pair<std::vector<V>, std::vector<W>>>> CoGroupCoPartitioned(
    RddPtr<std::pair<K, V>> left, RddPtr<std::pair<K, W>> right,
    std::string name = "cogroup") {
  BLAZE_CHECK_EQ(left->num_partitions(), right->num_partitions());
  BLAZE_CHECK(left->hash_partitioned() && right->hash_partitioned())
      << "CoGroupCoPartitioned requires hash-partitioned inputs";
  using Groups = std::pair<std::vector<V>, std::vector<W>>;
  auto result = NewRdd<TransformRdd<std::pair<K, Groups>>>(
      left->context(), std::move(name), left->num_partitions(),
      std::vector<Dependency>{Dependency{left}, Dependency{right}},
      [left, right](TaskContext& tc, uint32_t index) {
        const BlockPtr left_block = tc.GetBlock(*left, index);
        const BlockPtr right_block = tc.GetBlock(*right, index);
        // One group per key, dense and in first-seen order.
        std::vector<std::pair<K, Groups>> out;
        FlatKeyIndex<K> index_of;
        const auto key_of = [&out](uint32_t row) -> const K& { return out[row].first; };
        const auto group_of = [&](const K& key) -> Groups& {
          const auto [row, inserted] = index_of.Insert(key, key_of);
          if (inserted) {
            out.emplace_back(key, Groups());
          }
          return out[row].second;
        };
        for (const auto& [key, value] : RowsOf<std::pair<K, V>>(left_block)) {
          group_of(key).first.push_back(value);
        }
        for (const auto& [key, value] : RowsOf<std::pair<K, W>>(right_block)) {
          group_of(key).second.push_back(value);
        }
        std::sort(out.begin(), out.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        return out;
      });
  result->set_hash_partitioned(true);
  return result;
}

// Globally sorts a keyed dataset: samples the keys to pick balanced range
// boundaries (an eager sampling job, as in Spark's sortByKey), then
// range-shuffles so partition i holds keys <= partition i+1's, each sorted.
template <typename K, typename V>
RddPtr<std::pair<K, V>> SortByKey(RddPtr<std::pair<K, V>> parent, size_t num_partitions,
                                  uint64_t sample_seed = 17, std::string name = "sortByKey") {
  // Eager boundary computation from a small sample of the keys.
  auto sampled = parent->Sample(0.1, sample_seed, name + ".sample");
  std::vector<K> keys;
  for (const auto& [key, value] : sampled->Collect()) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  auto boundaries = std::make_shared<std::vector<K>>();
  for (size_t b = 1; b < num_partitions; ++b) {
    if (keys.empty()) {
      break;
    }
    boundaries->push_back(keys[keys.size() * b / num_partitions]);
  }
  typename ShuffledRdd<K, V, std::vector<V>>::PartitionerFn partitioner =
      [boundaries](const K& key, size_t count) {
        const auto it = std::upper_bound(boundaries->begin(), boundaries->end(), key);
        const auto bucket = static_cast<uint32_t>(it - boundaries->begin());
        return std::min(bucket, static_cast<uint32_t>(count - 1));
      };
  auto grouped = NewRdd<ShuffledRdd<K, V, std::vector<V>>>(
      parent->context(), name + ".range", parent, num_partitions,
      [](const V& v) { return std::vector<V>{v}; },
      [](std::vector<V>& acc, const V& v) { acc.push_back(v); }, partitioner);
  // The shuffled output is sorted by key per partition; flatten multiplicities.
  return NewRdd<PipelineRdd<std::pair<K, V>>>(
      parent->context(), std::move(name), num_partitions,
      std::vector<Dependency>{Dependency{grouped}},
      [grouped](TaskContext& tc, uint32_t index, RowSink<std::pair<K, V>>& sink) {
        auto link = MakeSink<std::pair<K, std::vector<V>>>([&sink](auto&& row) {
          for (const V& value : row.second) {
            sink.Push(std::pair<K, V>(row.first, value));
          }
        });
        grouped->StreamRows(tc, index, link);
      });
}

// Keys a dataset and hash-partitions it in one shuffle (repartition by key).
template <typename K, typename V>
RddPtr<std::pair<K, V>> PartitionByKey(RddPtr<std::pair<K, V>> parent, size_t num_reduce,
                                       std::string name = "partitionBy") {
  // groupByKey would change the value type; instead aggregate into a vector
  // and flatten back out, preserving multiplicity.
  auto grouped = GroupByKey<K, V>(parent, num_reduce, name + ".group");
  auto result = NewRdd<PipelineRdd<std::pair<K, V>>>(
      parent->context(), std::move(name), num_reduce,
      std::vector<Dependency>{Dependency{grouped}},
      [grouped](TaskContext& tc, uint32_t index, RowSink<std::pair<K, V>>& sink) {
        auto link = MakeSink<std::pair<K, std::vector<V>>>([&sink](auto&& row) {
          for (const V& value : row.second) {
            sink.Push(std::pair<K, V>(row.first, value));
          }
        });
        grouped->StreamRows(tc, index, link);
      });
  result->set_hash_partitioned(true);
  return result;
}

}  // namespace blaze

#endif  // SRC_DATAFLOW_PAIR_RDD_H_
