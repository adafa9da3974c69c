// Tests for the checkpoint store: hash accumulator canonicality, circuit
// and option fingerprints, the checkpoint codec, store durability, the
// on-disk pin of a killed campaign's checkpoint, a deterministic mutation
// fuzz of the checkpoint reader, and campaigns resuming from forged and
// mutated checkpoints.
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "store/fingerprint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "draws.hpp"
#include "errmodel/errmodel.hpp"
#include "fsm/mealy.hpp"
#include "model/encode.hpp"
#include "metric_totals.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "pipeline/validation_pipeline.hpp"
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

TEST(HasherTest, HexIsThirtyTwoLowercaseDigits) {
  Hasher h;
  h.str("simcov");
  const std::string hex = h.digest().hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char ch : hex) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) << ch;
  }
}

// ---- Structural fingerprints ----------------------------------------------

fsm::MealyMachine ring_machine() {
  fsm::MealyMachine m(3, 2);
  for (fsm::StateId s = 0; s < 3; ++s) {
    m.set_transition(s, 0, (s + 1) % 3, s);
    m.set_transition(s, 1, s, 10 + s);
  }
  return m;
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

// ---- Checkpoint codec ------------------------------------------------------

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

  // So does a forged run count, before it sizes an allocation: reserving
  // 2^61 runs (above vector::max_size) would throw std::length_error, which
  // no CodecError handler catches.
  ByteWriter only_count;
  only_count.u64(std::uint64_t{1} << 61);
  EXPECT_THROW((void)checkpoint_from_payload(only_count.data()), CodecError);
  auto one_short = payload;
  one_short[0] = 3;  // the little-endian count claims three runs, holds two
  EXPECT_THROW((void)checkpoint_from_payload(one_short), CodecError);
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
  ArtifactStore store(dir_);
  obs::MetricsRegistry counters;
  const Fingerprint key = key_of("ckpt-a");
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};

  EXPECT_FALSE(store.load(key).has_value());
  store.publish(key, payload, obs::Stage::kSimulate, counters);
  const auto back = store.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);

  const auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.checkpoint_writes, 1u);
  EXPECT_GT(stats.bytes_written, payload.size());  // header included
  EXPECT_EQ(stats.bytes_read, payload.size());
  EXPECT_EQ(counter_total(counters, "checkpoint.write"), 1u);

  // The on-disk name is the content address: checkpoint-<32 hex>.art.
  const auto path = store.path_for(key);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(path.filename().string(), "checkpoint-" + key.hex() + ".art");
}

TEST_F(ArtifactStoreTest, CorruptedArtifactIsDeletedAndReportedAsMiss) {
  ArtifactStore store(dir_);
  const Fingerprint key = key_of("ckpt-b");
  std::vector<std::uint8_t> payload(64, 0xAB);
  store.publish(key, payload, obs::Stage::kSimulate, obs::null_sink());

  // Flip one payload byte on disk; the checksum must catch it.
  const auto path = store.path_for(key);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x00');
  }
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_FALSE(std::filesystem::exists(path))
      << "a corrupt checkpoint must not survive to poison later resumes";
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST_F(ArtifactStoreTest, TruncatedArtifactIsDeletedAndReportedAsMiss) {
  ArtifactStore store(dir_);
  const Fingerprint key = key_of("ckpt-c");
  store.publish(key, std::vector<std::uint8_t>(32, 0x11),
                obs::Stage::kSimulate, obs::null_sink());
  const auto path = store.path_for(key);
  std::filesystem::resize_file(path, 10);  // cuts into the header
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ArtifactStoreTest, EraseRemovesWithoutCountingEviction) {
  ArtifactStore store(dir_);
  const Fingerprint key = key_of("ckpt");
  store.publish(key, std::vector<std::uint8_t>{9, 9}, obs::Stage::kSimulate,
                obs::null_sink());
  const StoreStats before = store.stats();
  EXPECT_EQ(before.checkpoint_writes, 1u);
  store.erase(key);
  EXPECT_FALSE(std::filesystem::exists(store.path_for(key)));
  // Erasing is bookkeeping, not a lookup: no hit, miss or write counted.
  EXPECT_EQ(store.stats().hits, before.hits);
  EXPECT_EQ(store.stats().misses, before.misses);
  EXPECT_EQ(store.stats().checkpoint_writes, before.checkpoint_writes);
}

/// Writes a verbatim SIMCOVA1 file of header kind `kind`, version 1.
void write_artifact(const std::filesystem::path& path, std::uint32_t kind,
                    const ByteWriter& payload) {
  Hasher checksum;
  checksum.str("simcov.artifact.payload");
  checksum.bytes(payload.data().data(), payload.size());
  const Fingerprint sum = checksum.digest();
  ByteWriter file;
  file.raw("SIMCOVA1", 8);
  file.u32(kind);
  file.u32(1);
  file.u64(payload.size());
  file.u64(sum.hi);
  file.u64(sum.lo);
  file.raw(payload.data().data(), payload.size());
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(file.data().data()),
            static_cast<std::streamsize>(file.size()));
}

TEST_F(ArtifactStoreTest, RetiredKindArtifactsAreIgnoredAndKept) {
  // Stores written while the retired kinds existed may still hold their
  // files: tour (1), symstats (2), report (3) and baseline (5). Write one
  // of each under the campaign's key, each with a well-formed header.
  std::filesystem::create_directories(dir_);
  const Fingerprint key = key_of("campaign");
  ByteWriter payload;
  for (std::uint64_t v : {19u, 40678u, 42783u}) payload.u64(v);
  std::vector<std::filesystem::path> old;
  for (const auto& [prefix, kind] :
       {std::pair<const char*, std::uint32_t>{"tour", 1},
        {"symstats", 2},
        {"report", 3},
        {"baseline", 5}}) {
    old.push_back(dir_ / (std::string(prefix) + "-" + key.hex() + ".art"));
    write_artifact(old.back(), kind, payload);
  }

  // The checkpoint misses, publishes and hits under the same key around
  // them; nothing reads or removes the old files.
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  ArtifactStore store(dir_);
  EXPECT_FALSE(store.load(key).has_value());
  store.publish(key, bytes, obs::Stage::kSimulate, obs::null_sink());
  EXPECT_EQ(store.load(key), bytes);
  store.erase(key);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
  for (const auto& path : old) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }

  // A retired kind's file under the checkpoint name is foreign: a miss,
  // and deleted like any other file that fails verification.
  write_artifact(store.path_for(key), 1, payload);
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_FALSE(std::filesystem::exists(store.path_for(key)));
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

/// The reduced DLX control model (1024 states): small enough for a whole
/// campaign in a unit test.
testmodel::TestModelOptions tiny_model_options() {
  testmodel::TestModelOptions opt;
  opt.output_sync_latches = false;
  opt.fetch_controller = false;
  opt.aux_outputs = false;
  opt.onehot_opclass = false;
  opt.interlock_registers = false;
  opt.reg_addr_bits = 1;
  opt.reduced_isa = true;
  return opt;
}

// ---- Resume from a forged checkpoint ---------------------------------------

TEST_F(ArtifactStoreTest, ForgedCheckpointRunCountResumesAsAFullRerun) {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.threads = 1;
  const std::vector<dlx::PipelineBug> bugs{dlx::PipelineBug::kNoLoadUseStall};
  const std::string reference =
      core::semantic_json(core::run_campaign(options, bugs));

  // A checkpoint claiming 2^61 runs, published under the campaign's own
  // key: the store's checksum holds, only the payload is forged.
  const auto built = testmodel::build_dlx_control_model(options.model_options);
  const Fingerprint key = pipeline::checkpoint_key(options, built.circuit,
                                                   model::Backend::kExplicit);
  ByteWriter forged;
  forged.u64(std::uint64_t{1} << 61);
  ArtifactStore(dir_).publish(key, forged.data(), obs::Stage::kSimulate,
                              obs::null_sink());

  // The resume decodes nothing, so it re-runs everything and reports
  // exactly what the uninterrupted campaign did.
  options.store_dir = dir_.string();
  options.resume = true;
  const auto resumed = core::run_campaign(options, bugs);
  ASSERT_TRUE(resumed.store_stats.has_value());
  EXPECT_EQ(resumed.store_stats->resumed_sequences, 0u);
  EXPECT_EQ(core::semantic_json(resumed), reference);
}

// ---- Checkpoint on-disk format pin -----------------------------------------

/// Cancels the campaign after `after` committed clean runs — a
/// deterministic stand-in for killing the process mid-stream.
class KillAfterRuns final : public obs::EventSink {
 public:
  KillAfterRuns(core::CancellationToken token, std::size_t after)
      : token_(std::move(token)), after_(after) {}

  void item(obs::Stage stage, std::string_view kind, std::uint64_t,
            std::uint64_t) override {
    if (stage == obs::Stage::kSimulate && kind == "clean_run" &&
        seen_.fetch_add(1) + 1 >= after_) {
      token_.cancel();
    }
  }

 private:
  core::CancellationToken token_;
  std::size_t after_;
  std::atomic<std::size_t> seen_{0};
};

/// The pinned campaign: the reduced DLX model, one bug, one thread (so the
/// kill lands on the same batch every run), a checkpoint every two runs.
core::CampaignOptions pinned_campaign_options() {
  core::CampaignOptions options;
  options.model_options = tiny_model_options();
  options.threads = 1;
  options.checkpoint_every = 2;
  return options;
}

const std::vector<dlx::PipelineBug> kPinnedBugs{
    dlx::PipelineBug::kNoLoadUseStall};

/// Runs the pinned campaign on a store at `dir`, cancels it after three
/// committed clean runs and returns every file the store then holds.
std::vector<std::filesystem::path> kill_pinned_campaign(
    const std::filesystem::path& dir) {
  core::CampaignOptions options = pinned_campaign_options();
  options.store_dir = dir.string();
  KillAfterRuns killer(options.cancel, 3);
  options.sink = &killer;
  EXPECT_TRUE(core::run_campaign(options, kPinnedBugs).cancelled());
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  return files;
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Pins the checkpoint a killed campaign leaves behind: its file name (the
// campaign key) and its bytes (header and payload). A checkpoint written by
// an earlier build must still resume, so neither may drift.
TEST_F(ArtifactStoreTest, KilledCampaignCheckpointIsPinnedAndResumes) {
  const std::string reference = core::semantic_json(
      core::run_campaign(pinned_campaign_options(), kPinnedBugs));

  const auto files = kill_pinned_campaign(dir_);
  ASSERT_EQ(files.size(), 1u) << "a killed campaign leaves its checkpoint only";
  EXPECT_EQ(files[0].filename().string(),
            "checkpoint-5368f8a770d09f9dfc38586cbb788f0a.art");
  const auto bytes = read_file(files[0]);
  EXPECT_EQ(bytes.size(), 152u);
  EXPECT_EQ(fnv1a(bytes), 1526375655252442528ull);

  core::CampaignOptions resume = pinned_campaign_options();
  resume.store_dir = dir_.string();
  resume.resume = true;
  const auto resumed = core::run_campaign(resume, kPinnedBugs);
  ASSERT_TRUE(resumed.store_stats.has_value());
  EXPECT_EQ(resumed.store_stats->resumed_sequences, 4u);
  EXPECT_EQ(core::semantic_json(resumed), reference);
}

// ---- Checkpoint reader fuzz ------------------------------------------------
//
// Deterministic mutation fuzzing of the store's one reader of outside bytes.
// Byte flips, truncations and splices of the pinned checkpoint, drawn from a
// counter-indexed splitmix64 stream, go through the header check, the
// checksum, the payload codec and a whole resume. The budgets are fixed, so
// every run (the sanitizer job's included) sees the same mutants.

/// One mutant of `bytes`: one to four flipped bytes, a truncation, or a
/// slice of `bytes` copied over another offset (growing the file when it
/// runs past the end).
std::vector<std::uint8_t> mutate(std::span<const std::uint8_t> bytes,
                                 Draws& draws) {
  std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
  switch (draws.below(3)) {
    case 0:
      for (std::size_t n = 1 + draws.below(4); n > 0; --n) {
        out[draws.below(out.size())] ^=
            static_cast<std::uint8_t>(1 + draws.below(255));
      }
      break;
    case 1:
      out.resize(draws.below(out.size()));
      break;
    default: {
      const std::size_t from = draws.below(bytes.size());
      const std::size_t length = 1 + draws.below(bytes.size() - from);
      const std::size_t to = draws.below(bytes.size() + 1);
      out.resize(std::max(out.size(), to + length));
      std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(from), length,
                  out.begin() + static_cast<std::ptrdiff_t>(to));
    }
  }
  return out;
}

void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Every mutated file either loads and decodes, or is a miss (and deleted),
// or its payload throws CodecError; a resume from it reports exactly what
// the uninterrupted campaign did.
TEST_F(ArtifactStoreTest, MutatedCheckpointFilesMissOrResumeIdentically) {
  const core::CampaignOptions options = pinned_campaign_options();
  const std::string reference =
      core::semantic_json(core::run_campaign(options, kPinnedBugs));
  const auto built = testmodel::build_dlx_control_model(options.model_options);
  const Fingerprint key = pipeline::checkpoint_key(options, built.circuit,
                                                   model::Backend::kExplicit);
  const auto files = kill_pinned_campaign(dir_);
  ASSERT_EQ(files.size(), 1u);
  const auto path = ArtifactStore(dir_).path_for(key);
  ASSERT_EQ(files[0], path);
  const auto original = read_file(path);

  Draws draws(0x636b7074);  // "ckpt"
  for (int i = 0; i < 48; ++i) {
    const auto mutant = mutate(original, draws);
    write_file(path, mutant);
    ArtifactStore store(dir_);
    if (const auto payload = store.load(key)) {
      try {
        (void)checkpoint_from_payload(*payload);
      } catch (const CodecError&) {
      }
    } else {
      EXPECT_FALSE(std::filesystem::exists(path)) << "mutant " << i;
    }

    write_file(path, mutant);
    core::CampaignOptions resume = options;
    resume.store_dir = dir_.string();
    resume.resume = true;
    EXPECT_EQ(core::semantic_json(core::run_campaign(resume, kPinnedBugs)),
              reference)
        << "mutant " << i;
  }
}

// The payload codec alone, behind a valid header: every mutant decodes or
// throws CodecError (a forged run count included), and the store hands
// back exactly the bytes it verified.
TEST_F(ArtifactStoreTest, MutatedCheckpointPayloadsDecodeOrThrowCodecError) {
  const auto files = kill_pinned_campaign(dir_);
  ASSERT_EQ(files.size(), 1u);
  const auto file = read_file(files[0]);
  constexpr std::size_t kHeaderBytes = 40;
  ASSERT_GT(file.size(), kHeaderBytes);
  const std::span<const std::uint8_t> payload(file.data() + kHeaderBytes,
                                              file.size() - kHeaderBytes);

  ArtifactStore store(dir_ / "payloads");
  const Fingerprint key = key_of("payload-fuzz");
  Draws draws(0x7061796c);  // "payl"
  std::size_t decoded = 0;
  for (int i = 0; i < 4096; ++i) {
    const auto mutant = mutate(payload, draws);
    try {
      // A decoded payload is exactly its count and that many 26-byte runs.
      const auto ckpt = checkpoint_from_payload(mutant);
      EXPECT_EQ(8 + 26 * ckpt.clean_runs.size(), mutant.size())
          << "mutant " << i;
      ++decoded;
    } catch (const CodecError&) {
    }
    if (i % 64 == 0) {
      store.publish(key, mutant, obs::Stage::kSimulate, obs::null_sink());
      EXPECT_EQ(store.load(key), mutant) << "mutant " << i;
    }
  }
  // Flips inside run fields keep a payload well-formed, so some decode.
  EXPECT_GT(decoded, 0u);
}

// ---- Store counters through the metrics registry ---------------------------

TEST(StoreCounterTotals, AccumulateAcrossStagesByName) {
  obs::MetricsRegistry counters;
  counters.counter(obs::Stage::kSimulate, "checkpoint.write", 2);
  counters.counter(obs::Stage::kTour, "checkpoint.write", 3);
  counters.counter(obs::Stage::kSymbolic, "bdd.gc", 1);
  EXPECT_EQ(counter_total(counters, "checkpoint.write"), 5u);
  EXPECT_EQ(counter_total(counters, "bdd.gc"), 1u);
  EXPECT_EQ(counter_total(counters, "never.emitted"), 0u);
}

}  // namespace
}  // namespace simcov::store
