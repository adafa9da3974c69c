#include "store/fingerprint.hpp"

#include <array>
#include <cstdio>

namespace simcov::store {

namespace {

/// splitmix64 finalizer — full-avalanche mixing of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t rotl(std::uint64_t x, unsigned k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::string Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

Hasher& Hasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    // Lane A: FNV-1a. Lane B: add-rotate-multiply with a distinct prime.
    a_ = (a_ ^ p[i]) * 0x00000100000001b3ull;
    b_ = rotl(b_ + p[i] + 0x2545f4914f6cdd1dull, 23) * 0xff51afd7ed558ccdull;
  }
  length_ += n;
  return *this;
}

Hasher& Hasher::u8(std::uint8_t v) { return bytes(&v, 1); }

Hasher& Hasher::u32(std::uint32_t v) {
  const std::array<std::uint8_t, 4> le{
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  return bytes(le.data(), le.size());
}

Hasher& Hasher::u64(std::uint64_t v) {
  std::array<std::uint8_t, 8> le;
  for (unsigned i = 0; i < 8; ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return bytes(le.data(), le.size());
}

Hasher& Hasher::boolean(bool v) { return u8(v ? 1 : 0); }

Hasher& Hasher::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

Hasher& Hasher::fp(const Fingerprint& f) { return u64(f.hi).u64(f.lo); }

Fingerprint Hasher::digest() const {
  // Cross-mix the lanes with the length so the digest depends on both lanes
  // and truncation is visible.
  Fingerprint out;
  out.hi = mix64(a_ ^ rotl(b_, 32) ^ length_);
  out.lo = mix64(b_ + mix64(a_) + length_);
  return out;
}

Fingerprint fingerprint_circuit(const sym::SequentialCircuit& circuit) {
  Hasher h;
  h.str("simcov.circuit.v1");
  const auto& net = circuit.net;
  h.u64(net.num_signals());
  for (sym::SignalId s = 0; s < net.num_signals(); ++s) {
    const auto g = net.gate(s);
    h.u8(static_cast<std::uint8_t>(g.op)).u32(g.a).u32(g.b).u32(g.c);
  }
  h.u64(net.num_inputs());
  for (std::size_t k = 0; k < net.num_inputs(); ++k) {
    h.u32(net.inputs()[k]).str(net.input_name(k));
  }
  h.u64(circuit.latches.size());
  for (const auto& latch : circuit.latches) {
    h.u32(latch.current).u32(latch.next).boolean(latch.init).str(latch.name);
  }
  h.u64(circuit.primary_inputs.size());
  for (const sym::SignalId pi : circuit.primary_inputs) h.u32(pi);
  h.u64(circuit.outputs.size());
  for (const auto& [name, signal] : circuit.outputs) {
    h.str(name).u32(signal);
  }
  h.boolean(circuit.valid.has_value());
  if (circuit.valid.has_value()) h.u32(*circuit.valid);
  return h.digest();
}

Fingerprint fingerprint_options(const testmodel::TestModelOptions& options) {
  Hasher h;
  h.str("simcov.testmodel_options.v1");
  h.boolean(options.output_sync_latches);
  h.u32(options.reg_addr_bits);
  h.boolean(options.fetch_controller);
  h.boolean(options.aux_outputs);
  h.boolean(options.onehot_opclass);
  h.boolean(options.interlock_registers);
  h.boolean(options.keep_dest_in_state);
  h.boolean(options.expose_dest_outputs);
  h.boolean(options.reduced_isa);
  return h.digest();
}

}  // namespace simcov::store
