// Content fingerprints — the addressing scheme of the artifact store.
//
// Every cached artifact is keyed by a 128-bit fingerprint of the content
// that produced it: the test model and the option values that shape the
// artifact. Identical inputs hash identically across processes and runs
// (byte-level canonical serialization, explicit little-endian, no pointers
// or addresses), so a second campaign over the same model finds the first
// campaign's artifacts by pure recomputation of the key — no manifest, no
// coordination.
//
// Two canonical serializations are provided:
//  * fingerprint_circuit — structural: the exact gate netlist of a
//    sym::SequentialCircuit (gates, latches, PIs, outputs, constraint).
//    This is what the pipeline keys on: the DLX test-model build is a pure
//    function of TestModelOptions, so circuit identity == model identity,
//    and it stays cheap even when the reachable state space is huge.
//  * fingerprint_options — the TestModelOptions value, field by field.
//
// Hasher is the shared accumulator: two independently seeded 64-bit lanes
// over the byte stream with a strong finalizer, plus the total length — not
// cryptographic, but 128 bits of well-mixed state is far below any
// realistic collision risk for a build cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sym/symbolic_fsm.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::store {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// 32 lowercase hex digits, hi first — the artifact filename stem.
  [[nodiscard]] std::string hex() const;
};

/// Streaming 128-bit hash accumulator with typed, length-prefixed updates.
/// Update order is part of the canonical form: compose fingerprints by
/// hashing fields in a fixed documented order, never by set union.
class Hasher {
 public:
  Hasher& bytes(const void* data, std::size_t n);
  Hasher& u8(std::uint8_t v);
  Hasher& u32(std::uint32_t v);
  Hasher& u64(std::uint64_t v);
  Hasher& boolean(bool v);
  /// Length-prefixed, so "ab","c" never collides with "a","bc".
  Hasher& str(std::string_view s);
  /// Folds an already computed fingerprint in (for composite keys).
  Hasher& fp(const Fingerprint& f);

  [[nodiscard]] Fingerprint digest() const;

 private:
  std::uint64_t a_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  std::uint64_t b_ = 0x9e3779b97f4a7c15ull;  // golden-ratio seed
  std::uint64_t length_ = 0;
};

/// Structural fingerprint of a sequential circuit: every gate, latch,
/// primary input, output and the validity constraint, in storage order.
[[nodiscard]] Fingerprint fingerprint_circuit(
    const sym::SequentialCircuit& circuit);

/// Field-by-field fingerprint of the test-model build options.
[[nodiscard]] Fingerprint fingerprint_options(
    const testmodel::TestModelOptions& options);

}  // namespace simcov::store
