// Typed materialized partitions: object-row blocks, zero-copy views, and the
// columnar (struct-of-arrays) variant with arena-backed storage.
//
// Rows are held through a shared_ptr so a block can be a zero-copy *view* of
// rows owned elsewhere (another block, or a fused pipeline's collection
// buffer). Union/Coalesce and the single-reducer shuffle fast path alias
// parent rows instead of deep-copying them. Accounting: the block that owns
// the payload (the sole holder at construction) charges the full byte size;
// a view over rows that already have a live owner charges only its fixed
// overhead, so a parent and its view never bill the MemoryArbiter ledger
// twice for one payload.
//
// Row types that opt in via BlazeColumns<T> additionally get ColumnarBlock<T>:
// rows decomposed into contiguous per-field columns inside one BlockArena.
// Serialization becomes a handful of bulk column writes (far past the
// padding-free-POD limit of the codec's raw-copy fast path), and teardown is
// one arena Release() instead of a per-row destructor walk. Cache
// coordinators choose the representation at admission
// (RddBase::CacheRepresentation); tasks always receive object rows
// (TaskContext materializes on the read path).
//
// Wire format: every encoded block leads with a one-byte representation tag
// (kRowWireTag / kColumnarWireTag), so a spilled block decodes back into the
// representation it was cached in regardless of which tier it lands on.
#ifndef SRC_DATAFLOW_TYPED_BLOCK_H_
#define SRC_DATAFLOW_TYPED_BLOCK_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/common/block_arena.h"
#include "src/common/logging.h"
#include "src/serialize/codec.h"
#include "src/storage/block.h"

namespace blaze {

// Leading byte of every encoded block.
inline constexpr uint8_t kRowWireTag = 0x52;       // 'R'
inline constexpr uint8_t kColumnarWireTag = 0x43;  // 'C'

// Fixed footprint charged by a view block that aliases payload owned
// elsewhere: the TypedBlock object + shared_ptr control block, rounded up.
inline constexpr size_t kBlockViewOverheadBytes = 64;

// Immutable shared row storage; the currency of fused row exchange.
template <typename T>
using SharedRows = std::shared_ptr<const std::vector<T>>;

template <typename T>
class TypedBlock : public BlockData {
 public:
  explicit TypedBlock(std::vector<T> rows)
      : rows_(std::make_shared<const std::vector<T>>(std::move(rows))) {
    size_bytes_ = ApproxByteSize(*rows_);
  }

  // View constructor: adopts rows owned elsewhere without copying. With
  // charge_payload false the block reports only its fixed overhead — used
  // when the payload already has a live owner charging the ledger.
  explicit TypedBlock(SharedRows<T> rows, bool charge_payload = true)
      : rows_(std::move(rows)) {
    BLAZE_CHECK(rows_ != nullptr);
    size_bytes_ = charge_payload ? ApproxByteSize(*rows_) : kBlockViewOverheadBytes;
  }

  size_t SizeBytes() const override { return size_bytes_; }
  size_t NumRows() const override { return rows_->size(); }
  void EncodeTo(ByteSink& sink) const override {
    sink.WritePod(kRowWireTag);
    Encode(*rows_, sink);
  }

  const std::vector<T>& rows() const { return *rows_; }
  const SharedRows<T>& shared_rows() const { return rows_; }

  static std::shared_ptr<const TypedBlock<T>> DecodeFrom(ByteSource& src) {
    const uint8_t tag = src.ReadPod<uint8_t>();
    BLAZE_CHECK_EQ(tag, kRowWireTag) << "not a row-format block";
    return std::make_shared<TypedBlock<T>>(Decode<std::vector<T>>(src));
  }

 private:
  SharedRows<T> rows_;
  size_t size_bytes_;
};

// Downcasts a type-erased block to its row vector. The caller (a typed RDD)
// knows the element type; a mismatch is a programming error.
template <typename T>
const std::vector<T>& RowsOf(const BlockPtr& block) {
  const auto* typed = dynamic_cast<const TypedBlock<T>*>(block.get());
  BLAZE_CHECK(typed != nullptr) << "block element type mismatch";
  return typed->rows();
}

// Like RowsOf, but returns a reference that keeps the rows alive independently
// of the block (zero copy: shares ownership with the block's storage).
template <typename T>
SharedRows<T> SharedRowsOf(const BlockPtr& block) {
  const auto* typed = dynamic_cast<const TypedBlock<T>*>(block.get());
  BLAZE_CHECK(typed != nullptr) << "block element type mismatch";
  return typed->shared_rows();
}

template <typename T>
BlockPtr MakeBlock(std::vector<T> rows) {
  return std::make_shared<TypedBlock<T>>(std::move(rows));
}

// Zero-copy block over rows owned elsewhere. Ownership decides the charge: a
// uniquely-held vector (a fused pipeline handing over its freshly built
// collection buffer) makes this block the payload's owner, billed in full; a
// vector that is already co-owned (another block or live buffer holds it)
// yields a true alias billed only its fixed overhead — charging both the
// parent and the view for the same payload was the double-counting bug.
template <typename T>
BlockPtr MakeBlockView(SharedRows<T> rows) {
  const bool sole_owner = rows.use_count() == 1;
  return std::make_shared<TypedBlock<T>>(std::move(rows), /*charge_payload=*/sole_owner);
}

// View that charges the full payload regardless of co-ownership: for handoffs
// where the receiver retains the rows beyond the source block's lifetime and
// accounts for them in its own ledger (the shuffle service's bucket bytes).
template <typename T>
BlockPtr MakeOwnedBlockView(SharedRows<T> rows) {
  return std::make_shared<TypedBlock<T>>(std::move(rows), /*charge_payload=*/true);
}

// --- columnar layout trait ----------------------------------------------------------
//
// BlazeColumns<T> describes how to shred T into per-field columns. A
// specialization provides:
//   static constexpr bool kEnabled = true;
//   static constexpr bool kAutoSelect;  // engine may pick it at admission
//   struct Columns {...};               // ArenaColumn<...> members
//   static size_t ArenaBytes(const std::vector<T>& rows);   // exact reservation
//   static Columns Decompose(const std::vector<T>&, BlockArena&);
//   static T RowAt(const Columns&, size_t i);               // recompose one row
//   static void Encode(const Columns&, size_t n, ByteSink&);
//   static Columns Decode(ByteSource&, size_t n, BlockArena&);
// Variable-length fields flatten into a value slab plus an offsets column of
// n+1 prefix sums, so encode/decode stay pure bulk column copies.
template <typename T>
struct BlazeColumns {
  static constexpr bool kEnabled = false;
  static constexpr bool kAutoSelect = false;
};

// A type the engine converts to columnar at cache admission.
template <typename T>
inline constexpr bool kColumnarAutoEligible =
    BlazeColumns<T>::kEnabled && BlazeColumns<T>::kAutoSelect;

// Recomposes row i into an existing row object. Specializations with
// variable-length fields provide AssignRow so a vectorized gather loop can
// reuse one scratch row's heap capacity across the whole batch; the fallback
// constructs a fresh row per call.
template <typename T>
void ColumnarAssignRow(const typename BlazeColumns<T>::Columns& cols, size_t i, T& out) {
  if constexpr (requires { BlazeColumns<T>::AssignRow(cols, i, out); }) {
    BlazeColumns<T>::AssignRow(cols, i, out);
  } else {
    out = BlazeColumns<T>::RowAt(cols, i);
  }
}

// Bulk helpers shared by BlazeColumns specializations.
template <typename T>
void EncodeColumn(const ArenaColumn<T>& col, ByteSink& sink) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!col.empty()) {
    sink.WriteRaw(col.data(), col.size() * sizeof(T));
  }
}

template <typename T>
ArenaColumn<T> DecodeColumn(ByteSource& src, size_t n, BlockArena& arena) {
  auto col = ArenaColumn<T>::Make(arena, n);
  if (n > 0) {
    src.ReadRaw(col.data(), n * sizeof(T));
  }
  return col;
}

// Generic columnar layout for pairs of arithmetic fields — the currency of
// every shuffle (PageRank ranks, word counts, join keys). Auto-selected: the
// vectorized path reads the columns without recomposing rows.
template <typename A, typename B>
  requires(std::is_arithmetic_v<A> && std::is_arithmetic_v<B>)
struct BlazeColumns<std::pair<A, B>> {
  static constexpr bool kEnabled = true;
  static constexpr bool kAutoSelect = true;

  struct Columns {
    ArenaColumn<A> first;
    ArenaColumn<B> second;
  };

  static size_t ArenaBytes(const std::vector<std::pair<A, B>>& rows) {
    return BlockArena::Aligned(rows.size() * sizeof(A)) +
           BlockArena::Aligned(rows.size() * sizeof(B));
  }

  static Columns Decompose(const std::vector<std::pair<A, B>>& rows, BlockArena& arena) {
    Columns c;
    c.first = ArenaColumn<A>::Make(arena, rows.size());
    c.second = ArenaColumn<B>::Make(arena, rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      c.first[i] = rows[i].first;
      c.second[i] = rows[i].second;
    }
    return c;
  }

  static std::pair<A, B> RowAt(const Columns& c, size_t i) {
    return {c.first[i], c.second[i]};
  }

  static void Encode(const Columns& c, size_t /*n*/, ByteSink& sink) {
    EncodeColumn(c.first, sink);
    EncodeColumn(c.second, sink);
  }

  static Columns Decode(ByteSource& src, size_t n, BlockArena& arena) {
    Columns c;
    c.first = DecodeColumn<A>(src, n, arena);
    c.second = DecodeColumn<B>(src, n, arena);
    return c;
  }
};

// --- columnar block -----------------------------------------------------------------

// Fixed footprint of a ColumnarBlock beyond its arena (object + control
// block, rounded up); keeps SizeBytes honest for near-empty blocks.
inline constexpr size_t kColumnarBlockOverheadBytes = 96;

// Struct-of-arrays partition: rows shredded into contiguous per-field columns
// inside one lifetime arena. EncodeTo/DecodeFrom are a few bulk column
// copies; destruction is one arena Release(). SizeBytes is frozen at build
// (fixed overhead + arena reservation), which is exactly what MemoryStore
// records and later releases — the ledger balances by construction.
template <typename T>
class ColumnarBlock : public BlockData {
  using Traits = BlazeColumns<T>;
  static_assert(Traits::kEnabled, "T has no BlazeColumns specialization");

 public:
  explicit ColumnarBlock(const std::vector<T>& rows)
      : arena_(Traits::ArenaBytes(rows)), num_rows_(rows.size()) {
    cols_ = Traits::Decompose(rows, arena_);
    size_bytes_ = kColumnarBlockOverheadBytes + arena_.bytes_reserved();
  }

  size_t SizeBytes() const override { return size_bytes_; }
  size_t NumRows() const override { return num_rows_; }

  void EncodeTo(ByteSink& sink) const override {
    sink.WritePod(kColumnarWireTag);
    sink.WriteVarint(num_rows_);
    Traits::Encode(cols_, num_rows_, sink);
  }

  BlockRepresentation representation() const override {
    return BlockRepresentation::kColumnar;
  }

  // Recomposes an object-row block for an executing task.
  BlockPtr MaterializeRows() const override {
    std::vector<T> rows;
    rows.reserve(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) {
      rows.push_back(Traits::RowAt(cols_, i));
    }
    return MakeBlock(std::move(rows));
  }

  const typename Traits::Columns& columns() const { return cols_; }
  size_t arena_bytes() const { return arena_.bytes_reserved(); }

  static std::shared_ptr<const ColumnarBlock<T>> DecodeFrom(ByteSource& src) {
    const uint8_t tag = src.ReadPod<uint8_t>();
    BLAZE_CHECK_EQ(tag, kColumnarWireTag) << "not a columnar-format block";
    auto block = std::shared_ptr<ColumnarBlock<T>>(new ColumnarBlock<T>());
    block->num_rows_ = static_cast<size_t>(src.ReadVarint());
    block->cols_ = Traits::Decode(src, block->num_rows_, block->arena_);
    block->size_bytes_ = kColumnarBlockOverheadBytes + block->arena_.bytes_reserved();
    return block;
  }

 private:
  ColumnarBlock() = default;

  BlockArena arena_;
  typename Traits::Columns cols_;
  size_t num_rows_ = 0;
  size_t size_bytes_ = 0;
};

template <typename T>
BlockPtr MakeColumnarBlock(const std::vector<T>& rows) {
  return std::make_shared<ColumnarBlock<T>>(rows);
}

// Representation-dispatching row iteration: applies `fn` to every row of a
// block without forcing a full materialization. Object-row blocks iterate the
// vector in place; columnar blocks recompose through one scratch row (heap
// capacity reused across rows via ColumnarAssignRow). Consumers that only
// fold over rows — Count/Aggregate/shuffle bucketizers — use this to read
// cached columnar blocks with zero row-block allocation.
template <typename T, typename Fn>
void ForEachRow(const BlockPtr& block, Fn&& fn) {
  if (const auto* typed = dynamic_cast<const TypedBlock<T>*>(block.get())) {
    for (const T& row : typed->rows()) {
      fn(row);
    }
    return;
  }
  if constexpr (BlazeColumns<T>::kEnabled) {
    if (const auto* col = dynamic_cast<const ColumnarBlock<T>*>(block.get())) {
      T scratch{};
      const size_t n = col->NumRows();
      for (size_t i = 0; i < n; ++i) {
        ColumnarAssignRow<T>(col->columns(), i, scratch);
        fn(scratch);
      }
      return;
    }
  }
  // Unknown representation: pay the one-shot materialization.
  for (const T& row : RowsOf<T>(block->MaterializeRows())) {
    fn(row);
  }
}

}  // namespace blaze

#endif  // SRC_DATAFLOW_TYPED_BLOCK_H_
