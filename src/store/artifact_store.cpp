#include "store/artifact_store.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <string>
#include <system_error>

#include "store/codec.hpp"

namespace simcov::store {

namespace {

constexpr std::array<char, 8> kMagic{'S', 'I', 'M', 'C', 'O', 'V', 'A', '1'};

/// Fixed artifact header preceding the payload. All integers little-endian.
struct Header {
  std::uint32_t kind = 0;
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  Fingerprint checksum;
};

Fingerprint payload_checksum(std::span<const std::uint8_t> payload) {
  Hasher h;
  h.str("simcov.artifact.payload");
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

void encode_header(ByteWriter& w, const Header& h) {
  w.raw(kMagic.data(), kMagic.size());
  w.u32(h.kind);
  w.u32(h.version);
  w.u64(h.payload_size);
  w.u64(h.checksum.hi);
  w.u64(h.checksum.lo);
}

/// Parses and magic-checks the header; nullopt on any shape mismatch.
std::optional<Header> decode_header(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  try {
    const auto magic = r.raw(kMagic.size());
    if (std::memcmp(magic.data(), kMagic.data(), kMagic.size()) != 0) {
      return std::nullopt;
    }
    Header h;
    h.kind = r.u32();
    h.version = r.u32();
    h.payload_size = r.u64();
    h.checksum.hi = r.u64();
    h.checksum.lo = r.u64();
    return h;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 8;

}  // namespace

const char* kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kTour: return "tour";
    case ArtifactKind::kSymbolicSnapshot: return "symstats";
    case ArtifactKind::kReport: return "report";
    case ArtifactKind::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

std::uint32_t schema_version(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kTour: return 1;
    // v2: appended reorders/level_swaps/peak_live_nodes/order_fingerprint
    // to the BddStats tail. v1 entries decode-mismatch and are recomputed.
    case ArtifactKind::kSymbolicSnapshot: return 2;
    case ArtifactKind::kReport: return 1;
    case ArtifactKind::kCheckpoint: return 1;
  }
  return 0;
}

ArtifactStore::ArtifactStore(StoreOptions options)
    : options_(std::move(options)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec || !std::filesystem::is_directory(options_.dir)) {
    throw std::runtime_error("ArtifactStore: cannot create store directory " +
                             options_.dir.string());
  }
}

std::filesystem::path ArtifactStore::path_for(ArtifactKind kind,
                                              const Fingerprint& key) const {
  return options_.dir /
         (std::string(kind_name(kind)) + "-" + key.hex() + ".art");
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::load(
    ArtifactKind kind, const Fingerprint& key, obs::Stage stage,
    obs::EventSink& sink) {
  const std::filesystem::path path = path_for(kind, key);
  const auto miss = [&]() -> std::optional<std::vector<std::uint8_t>> {
    std::lock_guard lock(mutex_);
    ++stats_.misses;
    sink.counter(stage, "store.miss", 1);
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return miss();
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();

  const auto reject = [&]() {
    std::error_code ec;
    std::filesystem::remove(path, ec);  // corrupt/foreign: clear the slot
    return miss();
  };
  const auto header = decode_header(bytes);
  if (!header.has_value()) return reject();
  if (header->kind != static_cast<std::uint32_t>(kind) ||
      header->version != schema_version(kind) ||
      header->payload_size != bytes.size() - kHeaderSize) {
    return reject();
  }
  std::vector<std::uint8_t> payload(bytes.begin() + kHeaderSize, bytes.end());
  if (!(payload_checksum(payload) == header->checksum)) return reject();

  // Bump the LRU clock; failure to do so only weakens eviction ordering.
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);

  {
    std::lock_guard lock(mutex_);
    ++stats_.hits;
    stats_.bytes_read += payload.size();
  }
  sink.counter(stage, "store.hit", 1);
  return payload;
}

void ArtifactStore::publish(ArtifactKind kind, const Fingerprint& key,
                            std::span<const std::uint8_t> payload,
                            obs::Stage stage, obs::EventSink& sink) {
  Header h;
  h.kind = static_cast<std::uint32_t>(kind);
  h.version = schema_version(kind);
  h.payload_size = payload.size();
  h.checksum = payload_checksum(payload);
  ByteWriter w;
  encode_header(w, h);
  w.raw(payload.data(), payload.size());

  std::uint64_t serial = 0;
  {
    std::lock_guard lock(mutex_);
    serial = temp_counter_++;
  }
  const std::filesystem::path tmp =
      options_.dir / (".tmp-" + key.hex() + "-" + std::to_string(serial));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("ArtifactStore: cannot write " + tmp.string());
    }
    out.write(reinterpret_cast<const char*>(w.data().data()),
              static_cast<std::streamsize>(w.size()));
    if (!out) {
      throw std::runtime_error("ArtifactStore: short write to " +
                               tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_for(kind, key), ec);
  if (ec) {
    std::error_code cleanup;
    std::filesystem::remove(tmp, cleanup);
    throw std::runtime_error("ArtifactStore: cannot publish " +
                             path_for(kind, key).string() + ": " +
                             ec.message());
  }

  {
    std::lock_guard lock(mutex_);
    stats_.bytes_written += w.size();
    if (kind == ArtifactKind::kCheckpoint) ++stats_.checkpoint_writes;
  }
  if (kind == ArtifactKind::kCheckpoint) {
    sink.counter(stage, "checkpoint.write", 1);
  }
  if (options_.max_bytes > 0) evict_lru(stage, sink);
}

void ArtifactStore::erase(ArtifactKind kind, const Fingerprint& key) {
  std::error_code ec;
  std::filesystem::remove(path_for(kind, key), ec);
}

void ArtifactStore::evict_lru(obs::Stage stage, obs::EventSink& sink) {
  struct Entry {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    std::uint64_t size = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  const std::string checkpoint_prefix =
      std::string(kind_name(ArtifactKind::kCheckpoint)) + "-";
  for (const auto& de :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (ec) break;
    if (!de.is_regular_file(ec) || ec) continue;
    const std::string name = de.path().filename().string();
    if (!name.ends_with(".art")) continue;
    if (name.starts_with(checkpoint_prefix)) continue;  // eviction-exempt
    Entry e;
    e.path = de.path();
    e.mtime = de.last_write_time(ec);
    if (ec) continue;
    e.size = de.file_size(ec);
    if (ec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= options_.max_bytes) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& e : entries) {
    if (total <= options_.max_bytes) break;
    std::error_code rm;
    std::filesystem::remove(e.path, rm);
    if (rm) continue;
    total -= e.size;
    {
      std::lock_guard lock(mutex_);
      ++stats_.evictions;
    }
    sink.counter(stage, "store.evict", 1);
  }
}

StoreStats ArtifactStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void ArtifactStore::add_resumed_sequences(std::uint64_t n) {
  std::lock_guard lock(mutex_);
  stats_.resumed_sequences += n;
}

}  // namespace simcov::store
