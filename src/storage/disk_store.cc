#include "src/storage/disk_store.h"

#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/stopwatch.h"

namespace blaze {

DiskStore::DiskStore(std::filesystem::path dir, uint64_t throughput_bytes_per_sec)
    : dir_(std::move(dir)), throughput_(throughput_bytes_per_sec) {}

DiskStore::~DiskStore() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

std::filesystem::path DiskStore::PathFor(const BlockId& id) const {
  return dir_ / (id.ToString() + ".bin");
}

void DiskStore::Throttle(uint64_t bytes, double actual_ms) const {
  if (throughput_ == 0) {
    return;
  }
  const double target_ms =
      static_cast<double>(bytes) / static_cast<double>(throughput_) * 1000.0;
  if (target_ms > actual_ms) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(target_ms - actual_ms));
  }
}

DiskOpResult DiskStore::Put(const BlockId& id, const std::vector<uint8_t>& encoded) {
  // Created on first use: an engine that never writes a block never touches
  // the filesystem.
  std::call_once(dir_created_, [this] { std::filesystem::create_directories(dir_); });
  Stopwatch watch;
  {
    std::ofstream out(PathFor(id), std::ios::binary | std::ios::trunc);
    BLAZE_CHECK(out.good()) << "cannot open disk block " << id.ToString();
    out.write(reinterpret_cast<const char*>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
    // CRC-32 trailer (little-endian): verified on every Get so a corrupted
    // file reads back as a miss instead of deserializing garbage.
    const uint32_t crc = Crc32(encoded.data(), encoded.size());
    uint8_t trailer[4] = {static_cast<uint8_t>(crc), static_cast<uint8_t>(crc >> 8),
                          static_cast<uint8_t>(crc >> 16), static_cast<uint8_t>(crc >> 24)};
    out.write(reinterpret_cast<const char*>(trailer), sizeof(trailer));
    BLAZE_CHECK(out.good()) << "short write for disk block " << id.ToString();
  }
  Throttle(encoded.size(), watch.ElapsedMillis());
  const double elapsed = watch.ElapsedMillis();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sizes_.find(id);
    if (it != sizes_.end()) {
      used_ -= it->second;
    }
    sizes_[id] = encoded.size();
    used_ += encoded.size();
    total_io_ms_ += elapsed;
    total_io_bytes_ += encoded.size();
  }
  return {elapsed, encoded.size()};
}

std::optional<std::vector<uint8_t>> DiskStore::Get(const BlockId& id, DiskOpResult* op) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sizes_.contains(id)) {
      return std::nullopt;
    }
  }
  Stopwatch watch;
  std::ifstream in(PathFor(id), std::ios::binary | std::ios::ate);
  if (!in.good()) {
    return std::nullopt;
  }
  const auto file_size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::vector<uint8_t> raw(file_size);
  in.read(reinterpret_cast<char*>(raw.data()), static_cast<std::streamsize>(file_size));
  if (!in.good()) {
    // The file vanished or shrank under us (concurrent Remove / external
    // interference): a miss, not a fatal error.
    return std::nullopt;
  }
  bool corrupt = file_size < 4;
  std::vector<uint8_t> out;
  if (!corrupt) {
    const size_t payload = file_size - 4;
    const uint32_t stored = static_cast<uint32_t>(raw[payload]) |
                            static_cast<uint32_t>(raw[payload + 1]) << 8 |
                            static_cast<uint32_t>(raw[payload + 2]) << 16 |
                            static_cast<uint32_t>(raw[payload + 3]) << 24;
    corrupt = Crc32(raw.data(), payload) != stored;
    if (!corrupt) {
      raw.resize(payload);
      out = std::move(raw);
    }
  }
  if (corrupt) {
    BLAZE_LOG(kWarn) << "disk block " << id.ToString()
                     << " failed CRC check; treating as a miss";
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++checksum_failures_;
      auto it = sizes_.find(id);
      if (it != sizes_.end()) {
        used_ -= it->second;
        sizes_.erase(it);
      }
    }
    std::error_code ec;
    std::filesystem::remove(PathFor(id), ec);
    return std::nullopt;
  }
  const size_t size = out.size();
  Throttle(size, watch.ElapsedMillis());
  const double elapsed = watch.ElapsedMillis();
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_io_ms_ += elapsed;
    total_io_bytes_ += size;
  }
  if (op != nullptr) {
    op->elapsed_ms = elapsed;
    op->bytes = size;
  }
  return out;
}

bool DiskStore::Contains(const BlockId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sizes_.contains(id);
}

uint64_t DiskStore::Remove(const BlockId& id) {
  uint64_t size = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sizes_.find(id);
    if (it == sizes_.end()) {
      return 0;
    }
    size = it->second;
    used_ -= size;
    sizes_.erase(it);
  }
  std::error_code ec;
  std::filesystem::remove(PathFor(id), ec);
  return size;
}

uint64_t DiskStore::checksum_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checksum_failures_;
}

uint64_t DiskStore::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

size_t DiskStore::num_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sizes_.size();
}

std::vector<BlockId> DiskStore::Blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BlockId> out;
  out.reserve(sizes_.size());
  for (const auto& [id, size] : sizes_) {
    out.push_back(id);
  }
  return out;
}

double DiskStore::ObservedThroughput() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (total_io_ms_ < 1.0) {
    return throughput_ > 0 ? static_cast<double>(throughput_) : 500.0 * 1024 * 1024;
  }
  return static_cast<double>(total_io_bytes_) / (total_io_ms_ / 1000.0);
}

}  // namespace blaze
