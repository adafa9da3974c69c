// Tests for the artifact store subsystem: hash accumulator canonicality,
// cross-backend behavioural fingerprint stability (the property that makes
// content addressing sound — same machine, either backend, same key; any
// single-transition mutation, different key), codec roundtrips, store
// durability/eviction semantics, and the tour record/replay adapters.
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "store/fingerprint.hpp"
#include "store/tour_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "model/encode.hpp"
#include "model/explicit_model.hpp"
#include "model/symbolic_model.hpp"
#include "metric_totals.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "testmodel/testmodel.hpp"

namespace simcov::store {
namespace {

// ---- Hasher canonicality ---------------------------------------------------

TEST(HasherTest, DeterministicAndOrderSensitive) {
  Hasher a;
  a.u64(1).u64(2).str("x");
  Hasher b;
  b.u64(1).u64(2).str("x");
  EXPECT_EQ(a.digest(), b.digest());

  Hasher c;
  c.u64(2).u64(1).str("x");
  EXPECT_NE(a.digest(), c.digest());
}

TEST(HasherTest, StringsAreLengthPrefixed) {
  // "ab" + "c" and "a" + "bc" feed identical bytes; only the length
  // prefixes keep them apart.
  Hasher a;
  a.str("ab").str("c");
  Hasher b;
  b.str("a").str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(HasherTest, NegativeZeroCanonicalizes) {
  Hasher a;
  a.f64(0.0);
  Hasher b;
  b.f64(-0.0);
  EXPECT_EQ(a.digest(), b.digest());

  Hasher c;
  c.f64(1.0);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(HasherTest, HexIsThirtyTwoLowercaseDigits) {
  Hasher h;
  h.str("simcov");
  const std::string hex = h.digest().hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char ch : hex) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) << ch;
  }
}

// ---- Behavioural fingerprints ----------------------------------------------

fsm::MealyMachine ring_machine() {
  fsm::MealyMachine m(3, 2);
  for (fsm::StateId s = 0; s < 3; ++s) {
    m.set_transition(s, 0, (s + 1) % 3, s);
    m.set_transition(s, 1, s, 10 + s);
  }
  return m;
}

TEST(FingerprintModelTest, StableAcrossBackends) {
  const fsm::MealyMachine m = ring_machine();
  model::ExplicitModel explicit_model(m, 0);
  const auto circuit = model::encode_circuit(m, 0);
  model::SymbolicModel symbolic_model(circuit);
  EXPECT_EQ(fingerprint_model(explicit_model),
            fingerprint_model(symbolic_model));
}

TEST(FingerprintModelTest, EverySingleTransitionMutationChangesIt) {
  const fsm::MealyMachine m = ring_machine();
  model::ExplicitModel base_model(m, 0);
  const Fingerprint base = fingerprint_model(base_model);

  // The full output+transfer mutant enumeration of the paper's error model
  // (the sample size exceeds the enumeration, so every mutant is returned).
  const auto mutations = errmodel::sample_mutations(m, 0, 13, 1000000, 3);
  ASSERT_GT(mutations.size(), 10u);
  std::set<std::string> digests{base.hex()};
  for (const auto& mut : mutations) {
    model::ExplicitModel mutant(errmodel::apply_mutation(m, mut), 0);
    const Fingerprint fp = fingerprint_model(mutant);
    EXPECT_NE(fp, base) << "mutation left the fingerprint unchanged";
    digests.insert(fp.hex());
  }
  // Distinct mutants give distinct transition tables, hence distinct keys.
  EXPECT_EQ(digests.size(), mutations.size() + 1);
}

TEST(FingerprintModelTest, MutantStableAcrossBackendsToo) {
  const fsm::MealyMachine m = ring_machine();
  const errmodel::Mutation mut{errmodel::ErrorKind::kTransfer, {1, 0}, 0, 0};
  const fsm::MealyMachine mutant = errmodel::apply_mutation(m, mut);
  model::ExplicitModel explicit_model(mutant, 0);
  const auto circuit = model::encode_circuit(mutant, 0);
  model::SymbolicModel symbolic_model(circuit);
  EXPECT_EQ(fingerprint_model(explicit_model),
            fingerprint_model(symbolic_model));
}

TEST(FingerprintModelTest, TinyStateCapThrows) {
  const fsm::MealyMachine m = ring_machine();
  model::ExplicitModel model(m, 0);
  EXPECT_THROW((void)fingerprint_model(model, 1), std::runtime_error);
}

TEST(FingerprintTest, CircuitFingerprintSeesStructure) {
  const fsm::MealyMachine m = ring_machine();
  const auto a = model::encode_circuit(m, 0);
  const auto b = model::encode_circuit(m, 0);
  EXPECT_EQ(fingerprint_circuit(a), fingerprint_circuit(b));

  const errmodel::Mutation mut{errmodel::ErrorKind::kOutput, {1, 0}, 0, 4};
  const auto c = model::encode_circuit(errmodel::apply_mutation(m, mut), 0);
  EXPECT_NE(fingerprint_circuit(a), fingerprint_circuit(c));
}

TEST(FingerprintTest, OptionsFingerprintSeesEveryKnob) {
  testmodel::TestModelOptions base;
  EXPECT_EQ(fingerprint_options(base), fingerprint_options(base));

  testmodel::TestModelOptions narrow = base;
  narrow.reg_addr_bits = 1;
  EXPECT_NE(fingerprint_options(base), fingerprint_options(narrow));

  testmodel::TestModelOptions reduced = base;
  reduced.reduced_isa = !base.reduced_isa;
  EXPECT_NE(fingerprint_options(base), fingerprint_options(reduced));
}

// ---- Codec roundtrips ------------------------------------------------------

TEST(CodecTest, SequenceRoundtripsAtAwkwardWidth) {
  // 9 input bits -> 2 bytes per step, exercising the partial byte.
  const unsigned width = 9;
  model::Sequence sequence;
  for (std::uint64_t s = 0; s < 5; ++s) {
    std::uint64_t key = 0;
    for (unsigned b = 0; b < width; ++b) {
      if ((s + b) % 3 == 0) key |= std::uint64_t{1} << b;
    }
    sequence.push_back(key);
  }
  ByteWriter w;
  encode_sequence(w, sequence, width);
  EXPECT_EQ(w.size(), 8u + 2u * sequence.size());
  ByteReader r(w.data());
  EXPECT_EQ(decode_sequence(r, width), sequence);
  r.expect_done();

  // Bits 9..15 of the second byte are padding; decode masks them off.
  ByteWriter padded;
  padded.u64(1);
  padded.u8(0xff);
  padded.u8(0xff);
  ByteReader p(padded.data());
  EXPECT_EQ(decode_sequence(p, width), model::Sequence{0x1ff});
}

TEST(CodecTest, SequenceWidthMismatchThrows) {
  ByteWriter w;
  EXPECT_THROW(encode_sequence(w, model::Sequence{0b10000}, 4), CodecError);
  EXPECT_THROW(encode_sequence(w, model::Sequence{}, 64), CodecError);
}

TEST(CodecTest, StepCountBeyondThePayloadThrowsBeforeAllocating) {
  // A forged count must be a CodecError, not std::length_error (2^61
  // steps) or std::bad_alloc (2^36) from sizing the decoded sequence.
  for (const std::uint64_t count : {std::uint64_t{1} << 61,
                                    std::uint64_t{1} << 36,
                                    std::uint64_t{3}}) {
    ByteWriter w;
    w.u64(count);
    w.u8(1);
    w.u8(0);  // two 1-byte steps: one short of 3
    ByteReader r(w.data());
    EXPECT_THROW((void)decode_sequence(r, 1), CodecError) << count;
  }
}

TEST(CodecTest, TourSummaryRoundtrips) {
  model::TourResult summary;
  summary.coverage.states_visited = 24;
  summary.coverage.states_total = 24;
  summary.coverage.transitions_covered = 95;
  summary.coverage.transitions_total = 96;
  summary.steps = 311;
  summary.restarts = 4;
  summary.complete = false;
  ByteWriter w;
  encode_tour_summary(w, summary);
  ByteReader r(w.data());
  const auto back = decode_tour_summary(r);
  r.expect_done();
  EXPECT_EQ(back.coverage.states_visited, summary.coverage.states_visited);
  EXPECT_EQ(back.coverage.transitions_covered,
            summary.coverage.transitions_covered);
  EXPECT_EQ(back.steps, summary.steps);
  EXPECT_EQ(back.restarts, summary.restarts);
  EXPECT_EQ(back.complete, summary.complete);
}

TEST(CodecTest, SymbolicSnapshotRoundtrips) {
  SymbolicSnapshot snap;
  snap.fsm.num_latches = 25;
  snap.fsm.num_primary_inputs = 25;
  snap.fsm.num_outputs = 7;
  snap.fsm.transition_relation_nodes = 4242;
  snap.fsm.reachability_iterations = 13;
  snap.fsm.reachable_states = 12288.0;
  snap.fsm.transitions = 65536.0;
  snap.fsm.valid_input_combinations = 8228.0;
  snap.bdd.allocated_nodes = 99;
  snap.bdd.live_nodes = 60;
  snap.bdd.free_nodes = 39;
  snap.bdd.unique_lookups = 1000;
  snap.bdd.unique_hits = 900;
  snap.bdd.cache_lookups = 500;
  snap.bdd.cache_hits = 450;
  snap.bdd.gc_runs = 2;
  snap.bdd.reorders = 3;
  snap.bdd.level_swaps = 128;
  snap.bdd.peak_live_nodes = 77;
  snap.bdd.order_fingerprint = 0xdeadbeefcafef00dull;
  const auto back = snapshot_from_payload(to_payload(snap));
  EXPECT_EQ(back.fsm.transition_relation_nodes,
            snap.fsm.transition_relation_nodes);
  EXPECT_EQ(back.fsm.reachability_iterations, snap.fsm.reachability_iterations);
  EXPECT_DOUBLE_EQ(back.fsm.reachable_states, snap.fsm.reachable_states);
  EXPECT_DOUBLE_EQ(back.fsm.valid_input_combinations,
                   snap.fsm.valid_input_combinations);
  EXPECT_EQ(back.bdd.allocated_nodes, snap.bdd.allocated_nodes);
  EXPECT_EQ(back.bdd.gc_runs, snap.bdd.gc_runs);
  EXPECT_EQ(back.bdd.reorders, snap.bdd.reorders);
  EXPECT_EQ(back.bdd.level_swaps, snap.bdd.level_swaps);
  EXPECT_EQ(back.bdd.peak_live_nodes, snap.bdd.peak_live_nodes);
  EXPECT_EQ(back.bdd.order_fingerprint, snap.bdd.order_fingerprint);
}

TEST(CodecTest, CheckpointRoundtripsAndRejectsMalformedPayloads) {
  CampaignCheckpoint ckpt;
  ckpt.clean_runs.push_back(CheckpointRun{0, 120, 6, true, false});
  ckpt.clean_runs.push_back(CheckpointRun{1, 88, 4, false, true});
  const auto payload = to_payload(ckpt);
  const auto back = checkpoint_from_payload(payload);
  ASSERT_EQ(back.clean_runs.size(), 2u);
  EXPECT_EQ(back.clean_runs[1].sequence, 1u);
  EXPECT_EQ(back.clean_runs[1].impl_cycles, 88u);
  EXPECT_EQ(back.clean_runs[1].checkpoints, 4u);
  EXPECT_FALSE(back.clean_runs[1].passed);
  EXPECT_TRUE(back.clean_runs[1].budget_exhausted);

  // Truncated and padded payloads both fail closed.
  auto truncated = payload;
  truncated.pop_back();
  EXPECT_THROW((void)checkpoint_from_payload(truncated), CodecError);
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW((void)checkpoint_from_payload(padded), CodecError);
}

// ---- ArtifactStore ---------------------------------------------------------

Fingerprint key_of(std::string_view label) {
  Hasher h;
  h.str(label);
  return h.digest();
}

class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("simcov_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ArtifactStoreTest, MissThenPublishThenVerifiedHit) {
  ArtifactStore store(StoreOptions{dir_, 0});
  obs::MetricsRegistry counters;
  const Fingerprint key = key_of("tour-a");
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};

  EXPECT_FALSE(
      store.load(ArtifactKind::kTour, key, obs::Stage::kTour, counters)
          .has_value());
  store.publish(ArtifactKind::kTour, key, payload, obs::Stage::kTour,
                counters);
  const auto back =
      store.load(ArtifactKind::kTour, key, obs::Stage::kTour, counters);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);

  const auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.bytes_written, payload.size());  // header included
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_EQ(counter_total(counters, "store.miss"), 1u);
  EXPECT_EQ(counter_total(counters, "store.hit"), 1u);

  // The on-disk name is the content address: <kind>-<32 hex>.art.
  const auto path = store.path_for(ArtifactKind::kTour, key);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(path.filename().string(), "tour-" + key.hex() + ".art");
}

TEST_F(ArtifactStoreTest, CorruptedArtifactIsDeletedAndReportedAsMiss) {
  ArtifactStore store(StoreOptions{dir_, 0});
  auto& sink = obs::null_sink();
  const Fingerprint key = key_of("tour-b");
  std::vector<std::uint8_t> payload(64, 0xAB);
  store.publish(ArtifactKind::kTour, key, payload, obs::Stage::kTour, sink);

  // Flip one payload byte on disk; the checksum must catch it.
  const auto path = store.path_for(ArtifactKind::kTour, key);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x00');
  }
  EXPECT_FALSE(store.load(ArtifactKind::kTour, key, obs::Stage::kTour, sink)
                   .has_value());
  EXPECT_FALSE(std::filesystem::exists(path))
      << "a corrupt artifact must not survive to poison later runs";
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST_F(ArtifactStoreTest, TruncatedArtifactIsDeletedAndReportedAsMiss) {
  ArtifactStore store(StoreOptions{dir_, 0});
  auto& sink = obs::null_sink();
  const Fingerprint key = key_of("tour-c");
  store.publish(ArtifactKind::kTour, key,
                std::vector<std::uint8_t>(32, 0x11), obs::Stage::kTour, sink);
  const auto path = store.path_for(ArtifactKind::kTour, key);
  std::filesystem::resize_file(path, 10);  // cuts into the header
  EXPECT_FALSE(store.load(ArtifactKind::kTour, key, obs::Stage::kTour, sink)
                   .has_value());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ArtifactStoreTest, EraseRemovesWithoutCountingEviction) {
  ArtifactStore store(StoreOptions{dir_, 0});
  auto& sink = obs::null_sink();
  const Fingerprint key = key_of("ckpt");
  store.publish(ArtifactKind::kCheckpoint, key,
                std::vector<std::uint8_t>{9, 9}, obs::Stage::kSimulate, sink);
  EXPECT_EQ(store.stats().checkpoint_writes, 1u);
  store.erase(ArtifactKind::kCheckpoint, key);
  EXPECT_FALSE(std::filesystem::exists(
      store.path_for(ArtifactKind::kCheckpoint, key)));
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST_F(ArtifactStoreTest, LruEvictionRespectsCapAndSparesCheckpoints) {
  // Cap far below three payloads; checkpoints never count against it.
  ArtifactStore store(StoreOptions{dir_, 300});
  obs::MetricsRegistry counters;
  const std::vector<std::uint8_t> big(200, 0x5A);
  store.publish(ArtifactKind::kCheckpoint, key_of("ckpt"), big,
                obs::Stage::kSimulate, counters);
  for (const char* label : {"t1", "t2", "t3"}) {
    store.publish(ArtifactKind::kTour, key_of(label), big, obs::Stage::kTour,
                  counters);
  }

  EXPECT_TRUE(std::filesystem::exists(
      store.path_for(ArtifactKind::kCheckpoint, key_of("ckpt"))))
      << "evicting a checkpoint would discard resumable progress";
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_EQ(counter_total(counters, "store.evict"), store.stats().evictions);

  std::uintmax_t tour_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("tour-", 0) == 0) {
      tour_bytes += entry.file_size();
    }
  }
  EXPECT_LE(tour_bytes, 300u);
}

TEST_F(ArtifactStoreTest, RetiredBaselineArtifactIsIgnoredAndEvictable) {
  // Stores written while kind 5 (a per-campaign perf baseline) existed may
  // still hold its files. Write one verbatim: the SIMCOVA1 header with kind
  // 5, version 1, then its payload of three u64 work counts and four f64
  // phase times.
  std::filesystem::create_directories(dir_);
  ByteWriter payload;
  for (std::uint64_t v : {19u, 40678u, 42783u}) payload.u64(v);
  for (double v : {0.5, 0.125, 0.25, 0.125}) payload.f64(v);
  Hasher checksum;
  checksum.str("simcov.artifact.payload");
  checksum.bytes(payload.data().data(), payload.size());
  const Fingerprint sum = checksum.digest();
  ByteWriter file;
  file.raw("SIMCOVA1", 8);
  file.u32(5);
  file.u32(1);
  file.u64(payload.size());
  file.u64(sum.hi);
  file.u64(sum.lo);
  file.raw(payload.data().data(), payload.size());
  const Fingerprint key = key_of("campaign");
  const auto old = dir_ / ("baseline-" + key.hex() + ".art");
  {
    std::ofstream out(old, std::ios::binary);
    out.write(reinterpret_cast<const char*>(file.data().data()),
              static_cast<std::streamsize>(file.size()));
  }
  // Least recently used of everything below.
  std::filesystem::last_write_time(
      old, std::filesystem::last_write_time(old) - std::chrono::hours(1));

  // Every remaining kind misses, publishes and hits under the same key
  // around the old file, which nothing reads or removes.
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  {
    ArtifactStore store(StoreOptions{dir_, 0});
    obs::MetricsRegistry counters;
    for (const ArtifactKind kind :
         {ArtifactKind::kTour, ArtifactKind::kSymbolicSnapshot,
          ArtifactKind::kReport, ArtifactKind::kCheckpoint}) {
      EXPECT_FALSE(store.load(kind, key, obs::Stage::kTour, counters))
          << kind_name(kind);
      store.publish(kind, key, bytes, obs::Stage::kTour, counters);
      EXPECT_EQ(store.load(kind, key, obs::Stage::kTour, counters), bytes)
          << kind_name(kind);
    }
    EXPECT_EQ(store.stats().misses, 4u);
    EXPECT_EQ(store.stats().hits, 4u);
    EXPECT_TRUE(std::filesystem::exists(old));
  }

  // Eviction treats it as any other non-checkpoint artifact: a cap that
  // fits the three live ones plus one more evicts exactly the old file.
  const auto live_size = std::filesystem::file_size(
      dir_ / ("tour-" + key.hex() + ".art"));
  ArtifactStore capped(StoreOptions{dir_, 4 * live_size});
  obs::MetricsRegistry counters;
  capped.publish(ArtifactKind::kTour, key_of("fresh"), bytes,
                 obs::Stage::kTour, counters);
  EXPECT_FALSE(std::filesystem::exists(old));
  EXPECT_EQ(capped.stats().evictions, 1u);
  EXPECT_EQ(counter_total(counters, "store.evict"), 1u);
  for (const ArtifactKind kind :
       {ArtifactKind::kTour, ArtifactKind::kSymbolicSnapshot,
        ArtifactKind::kReport, ArtifactKind::kCheckpoint}) {
    EXPECT_TRUE(std::filesystem::exists(capped.path_for(kind, key)))
        << kind_name(kind);
  }
}

TEST_F(ArtifactStoreTest, DistinctKindsShareAKeyWithoutColliding) {
  ArtifactStore store(StoreOptions{dir_, 0});
  auto& sink = obs::null_sink();
  const Fingerprint key = key_of("shared");
  store.publish(ArtifactKind::kTour, key, std::vector<std::uint8_t>{1},
                obs::Stage::kTour, sink);
  store.publish(ArtifactKind::kReport, key, std::vector<std::uint8_t>{2},
                obs::Stage::kCompare, sink);
  const auto tour =
      store.load(ArtifactKind::kTour, key, obs::Stage::kTour, sink);
  const auto report =
      store.load(ArtifactKind::kReport, key, obs::Stage::kCompare, sink);
  ASSERT_TRUE(tour.has_value());
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ((*tour)[0], 1);
  EXPECT_EQ((*report)[0], 2);
}

// ---- Tour record/replay ----------------------------------------------------

model::TourResult sample_tour() {
  model::TourResult result;
  result.tour.sequences = {{0b101, 0b000}, {0b110}};
  result.coverage.states_visited = 3;
  result.coverage.states_total = 3;
  result.coverage.transitions_covered = 6;
  result.coverage.transitions_total = 6;
  result.steps = 3;
  result.restarts = 1;
  result.complete = true;
  return result;
}

TEST(TourCacheTest, RecordThenReplayIsIdentical) {
  const auto original = sample_tour();
  const auto expected = original.tour.sequences;
  RecordingTourStream recorder(
      std::make_unique<model::MaterializedTourStream>(original), 3);

  EXPECT_THROW((void)recorder.artifact(), std::logic_error)
      << "a partial tour must never be published";

  std::vector<model::Sequence> seen;
  while (auto seq = recorder.next_sequence()) seen.push_back(*seq);
  EXPECT_EQ(seen, expected);
  ASSERT_TRUE(recorder.exhausted());

  StoredTourStream replay(recorder.artifact());
  const auto summary = replay.summary();
  EXPECT_EQ(summary.steps, original.steps);
  EXPECT_EQ(summary.restarts, original.restarts);
  EXPECT_EQ(summary.complete, original.complete);
  EXPECT_EQ(summary.coverage.transitions_covered,
            original.coverage.transitions_covered);

  std::vector<model::Sequence> replayed;
  while (auto seq = replay.next_sequence()) replayed.push_back(*seq);
  EXPECT_EQ(replayed, expected);
}

TEST(TourCacheTest, MalformedPayloadThrowsInsteadOfReplayingGarbage) {
  EXPECT_THROW(StoredTourStream(std::vector<std::uint8_t>{1, 2, 3}),
               CodecError);
}

TEST(TourCacheTest, HeaderWidthBeyondTheKeyLimitThrows) {
  for (const std::uint32_t width : {63u, 64u, 0xffffffffu}) {
    ByteWriter w;
    w.u32(width);
    encode_tour_summary(w, model::TourResult{});
    w.u64(0);  // no sequences
    if (width <= 63) {
      StoredTourStream ok(w.take());
      EXPECT_FALSE(ok.next_sequence().has_value());
    } else {
      EXPECT_THROW(StoredTourStream(w.take()), CodecError) << width;
    }
  }
}

/// FNV-1a 64 over a payload.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// The complete recorded tour payload of `model`.
std::vector<std::uint8_t> recorded_tour(model::TestModel& model) {
  RecordingTourStream recorder(model.tour_source(), model.input_bits());
  while (recorder.next_sequence()) {
  }
  return recorder.artifact();
}

// Pins the stored tour bytes, not just their round trip: warm stores written
// by earlier builds must keep hitting, so the payload layout may not drift.
TEST(TourCacheTest, RecordedPayloadIsPinnedOnBothBackends) {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  const auto built = testmodel::build_dlx_control_model(opt);

  model::ExplicitModel explicit_model(
      sym::extract_explicit(built.circuit, 100000));
  EXPECT_EQ(fnv1a(recorded_tour(explicit_model)), 15673201030501502543ull);

  model::SymbolicModel symbolic_model(built.circuit);
  EXPECT_EQ(fnv1a(recorded_tour(symbolic_model)), 11543418244829818193ull);
}

// ---- Store counters through the metrics registry ---------------------------

TEST(StoreCounterTotals, AccumulateAcrossStagesByName) {
  obs::MetricsRegistry counters;
  counters.counter(obs::Stage::kTour, "store.hit", 2);
  counters.counter(obs::Stage::kSimulate, "store.hit", 3);
  counters.counter(obs::Stage::kTour, "store.miss", 1);
  EXPECT_EQ(counter_total(counters, "store.hit"), 5u);
  EXPECT_EQ(counter_total(counters, "store.miss"), 1u);
  EXPECT_EQ(counter_total(counters, "never.emitted"), 0u);
}

}  // namespace
}  // namespace simcov::store
