#include "store/artifact_store.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

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

ArtifactStore::ArtifactStore(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("ArtifactStore: cannot create store directory " +
                             dir_.string());
  }
}

std::filesystem::path ArtifactStore::path_for(const Fingerprint& key) const {
  return dir_ / ("checkpoint-" + key.hex() + ".art");
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::load(
    const Fingerprint& key) {
  const std::filesystem::path path = path_for(key);
  const auto miss = [&]() -> std::optional<std::vector<std::uint8_t>> {
    std::lock_guard lock(mutex_);
    ++stats_.misses;
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
  if (header->kind != kCheckpointKind ||
      header->version != kCheckpointVersion ||
      header->payload_size != bytes.size() - kHeaderSize) {
    return reject();
  }
  std::vector<std::uint8_t> payload(bytes.begin() + kHeaderSize, bytes.end());
  if (!(payload_checksum(payload) == header->checksum)) return reject();

  {
    std::lock_guard lock(mutex_);
    ++stats_.hits;
    stats_.bytes_read += payload.size();
  }
  return payload;
}

void ArtifactStore::publish(const Fingerprint& key,
                            std::span<const std::uint8_t> payload,
                            obs::Stage stage, obs::EventSink& sink) {
  Header h;
  h.kind = kCheckpointKind;
  h.version = kCheckpointVersion;
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
      dir_ / (".tmp-" + key.hex() + "-" + std::to_string(serial));
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
  std::filesystem::rename(tmp, path_for(key), ec);
  if (ec) {
    std::error_code cleanup;
    std::filesystem::remove(tmp, cleanup);
    throw std::runtime_error("ArtifactStore: cannot publish " +
                             path_for(key).string() + ": " + ec.message());
  }

  {
    std::lock_guard lock(mutex_);
    stats_.bytes_written += w.size();
    ++stats_.checkpoint_writes;
  }
  sink.counter(stage, "checkpoint.write", 1);
}

void ArtifactStore::erase(const Fingerprint& key) {
  std::error_code ec;
  std::filesystem::remove(path_for(key), ec);
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
