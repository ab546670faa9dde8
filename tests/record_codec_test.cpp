// Binary record codec (record_codec.hpp): round-trip fidelity over
// randomised headers/records (including stuck-at weight faults and int8
// campaigns), torn-tail recovery at every truncation point, version-
// mismatch refusal, the runner's .rcp checkpoint/resume path, and the
// losslessness contract — to_jsonl must be byte-identical to a natively
// written JSONL checkpoint.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "fi/record_codec.hpp"

namespace rangerpp::fi {
namespace {

std::string temp_path(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CheckpointHeader sample_header() {
  CheckpointHeader h;
  h.label = "LeNet+ranger";
  h.seed = 20210621;
  h.dtype = "fixed32(Q21.10)";
  h.n_bits = 3;
  h.consecutive_bits = true;
  h.fault_class = "weight";
  h.weight_kind = "stuck0";
  h.ecc = "secded";
  h.trials_per_input = 5000;
  h.inputs = 10;
  h.judges = 2;
  h.sampling = "stratified";
  h.bit_group_size = 8;
  h.shard_index = 3;
  h.shard_count = 7;
  h.strata_weights = "conv1:b0-7=0.125;conv1:b8-15=0.125;fc2:b24-31=0.75";
  return h;
}

// Randomised but reproducible record population covering the whole field
// space: all three fault actions (flip and both stuck-at levels),
// multi-fault sets, empty fault sets (ECC-corrected weight trials),
// negative bit indices never occur but large ones do, and int8-sized bit
// positions.
std::vector<TrialRecord> sample_records(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<TrialRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TrialRecord r;
    r.trial = i * 7 + (rng() % 3);
    r.input = static_cast<std::uint32_t>(rng() % 10);
    const std::size_t nf = rng() % 4;  // 0 = ECC-corrected weight trial
    for (std::size_t f = 0; f < nf; ++f) {
      FaultPoint p;
      p.node_name = (f % 2) ? "conv1" : "fc2.weight";
      p.element = rng() % 1000003;
      p.bit = static_cast<int>(rng() % 32);
      p.action = static_cast<FaultAction>(rng() % 3);
      r.faults.push_back(std::move(p));
    }
    r.stratum = "conv1:b8-15";
    r.sdc_mask = static_cast<std::uint32_t>(rng());
    out.push_back(std::move(r));
  }
  return out;
}

TEST(RecordCodec, StreamRoundTripIsExact) {
  const CheckpointHeader h = sample_header();
  const std::vector<TrialRecord> records = sample_records(64, 1);
  std::string bytes;
  encode_stream_header(bytes, h);
  for (const TrialRecord& r : records) encode_record(bytes, r);

  ASSERT_TRUE(is_binary_checkpoint(bytes));
  const DecodedStream d = decode_stream(bytes);
  EXPECT_FALSE(d.torn_tail);
  EXPECT_EQ(d.header.fingerprint(), h.fingerprint());
  EXPECT_EQ(d.header.label, h.label);
  EXPECT_EQ(d.header.shard_index, h.shard_index);
  EXPECT_EQ(d.header.shard_count, h.shard_count);
  EXPECT_EQ(d.header.judges, h.judges);
  EXPECT_EQ(d.header.strata_weights, h.strata_weights);
  ASSERT_EQ(d.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(d.records[i], records[i]) << "record " << i;
}

TEST(RecordCodec, WireFramesRoundTripWithoutHeader) {
  const std::vector<TrialRecord> records = sample_records(40, 2);
  const std::string bytes = encode_records(records);
  bool torn = true;
  const std::vector<TrialRecord> back = decode_records(bytes, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(back[i], records[i]);
}

TEST(RecordCodec, StuckAtActionsSurviveBothFormats) {
  // The stuck-at actions are the newest field of the fault grammar —
  // pin their round trip through binary *and* the JSONL re-export.
  TrialRecord r;
  r.trial = 11;
  r.input = 4;
  r.faults.push_back({"fc1.weight", 123, 7, FaultAction::kStuck0});
  r.faults.push_back({"fc1.weight", 124, 0, FaultAction::kStuck1});
  r.faults.push_back({"conv2", 5, 31, FaultAction::kFlip});
  r.stratum = "fc1.weight:b0-7";
  r.sdc_mask = 3;

  std::string bytes;
  encode_record(bytes, r);
  const std::vector<TrialRecord> back = decode_records(bytes);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], r);
  ASSERT_EQ(back[0].faults.size(), 3u);
  EXPECT_EQ(back[0].faults[0].action, FaultAction::kStuck0);
  EXPECT_EQ(back[0].faults[1].action, FaultAction::kStuck1);
  EXPECT_EQ(back[0].faults[2].action, FaultAction::kFlip);

  const std::string line = trial_record_line(r);
  EXPECT_NE(line.find("s0"), std::string::npos);
  EXPECT_NE(line.find("s1"), std::string::npos);
}

TEST(RecordCodec, Int8HeaderRoundTrips) {
  CheckpointHeader h = sample_header();
  h.dtype = "int8";
  h.fault_class = "activation";
  h.n_bits = 1;
  h.consecutive_bits = false;
  std::string bytes;
  encode_stream_header(bytes, h);
  const DecodedStream d = decode_stream(bytes);
  EXPECT_EQ(d.header.dtype, "int8");
  EXPECT_EQ(d.header.fingerprint(), h.fingerprint());
}

TEST(RecordCodec, TornTailRecoversThePrefixAtEveryTruncation) {
  const CheckpointHeader h = sample_header();
  const std::vector<TrialRecord> records = sample_records(8, 3);
  std::string bytes;
  encode_stream_header(bytes, h);
  const std::size_t header_size = bytes.size();
  std::vector<std::size_t> frame_ends;
  for (const TrialRecord& r : records) {
    encode_record(bytes, r);
    frame_ends.push_back(bytes.size());
  }

  // Truncating anywhere inside record k must recover records [0, k)
  // and flag the tear — the killed-writer contract.
  for (std::size_t cut = header_size; cut < bytes.size(); ++cut) {
    const DecodedStream d = decode_stream(bytes.substr(0, cut));
    std::size_t whole = 0;
    while (whole < frame_ends.size() && frame_ends[whole] <= cut) ++whole;
    EXPECT_EQ(d.records.size(), whole) << "cut at " << cut;
    const bool clean = cut == header_size ||
                       (whole > 0 && frame_ends[whole - 1] == cut);
    EXPECT_EQ(d.torn_tail, !clean) << "cut at " << cut;
    for (std::size_t i = 0; i < whole; ++i)
      EXPECT_EQ(d.records[i], records[i]);
  }
}

TEST(RecordCodec, VersionMismatchIsRefused) {
  std::string bytes;
  encode_stream_header(bytes, sample_header());
  ++bytes[4];  // version is a u32 LE straight after the 4-byte magic
  try {
    decode_stream(bytes);
    FAIL() << "decode_stream accepted a version-2 stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(RecordCodec, BadMagicAndGarbageAreRefused) {
  EXPECT_THROW(decode_stream("JSON{\"type\":\"header\"}"),
               std::runtime_error);
  EXPECT_THROW(decode_stream(""), std::runtime_error);
  std::string bytes(kRecordCodecMagic, sizeof kRecordCodecMagic);
  bytes += std::string("\x01\x00\x00\x00", 4);
  bytes += '\x05';  // header length claims 5 bytes, none follow
  EXPECT_THROW(decode_stream(bytes), std::runtime_error);
}

TEST(RecordCodec, ToJsonlMatchesNativeWriterByteForByte) {
  const CheckpointHeader h = sample_header();
  std::vector<TrialRecord> records = sample_records(32, 4);
  // The JSONL grammar cannot express an empty fault set (decode_faults
  // rejects it; the runner never emits one) — keep those to the binary
  // round-trip tests and give every record here at least one fault.
  for (TrialRecord& r : records)
    if (r.faults.empty())
      r.faults.push_back({"fc2.weight", 1, 0, FaultAction::kFlip});

  const std::string path = temp_path("codec_native.jsonl");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  write_checkpoint_header(f, h);
  for (const TrialRecord& r : records) append_trial_record(f, r);
  std::fclose(f);

  EXPECT_EQ(to_jsonl(h, records), slurp(path));

  // And the native file round-trips through load_checkpoint into the
  // same records, closing the loop: binary → jsonl → loader agree.
  const Checkpoint cp = load_checkpoint(path);
  EXPECT_TRUE(cp.records == records);
}

TEST(RecordCodec, BinaryCheckpointFileLoadsViaBothEntryPoints) {
  const CheckpointHeader h = sample_header();
  const std::vector<TrialRecord> records = sample_records(16, 5);
  std::string bytes;
  encode_stream_header(bytes, h);
  for (const TrialRecord& r : records) encode_record(bytes, r);

  const std::string path = temp_path("codec_ckpt.rcp");
  std::ofstream(path, std::ios::binary).write(bytes.data(),
                                              static_cast<std::streamsize>(
                                                  bytes.size()));

  const Checkpoint direct = load_binary_checkpoint(path);
  EXPECT_EQ(direct.header.fingerprint(), h.fingerprint());
  EXPECT_TRUE(direct.records == records);

  // load_checkpoint sniffs the magic — .rcp content is readable through
  // the JSONL-era entry point every merge/report tool calls.
  const Checkpoint sniffed = load_checkpoint(path);
  EXPECT_EQ(sniffed.header.fingerprint(), h.fingerprint());
  EXPECT_TRUE(sniffed.records == records);
}

TEST(RecordCodec, PathConventionSelectsBinary) {
  EXPECT_TRUE(binary_checkpoint_path("dir/run.s0of4.rcp"));
  EXPECT_FALSE(binary_checkpoint_path("dir/run.s0of4.jsonl"));
  EXPECT_FALSE(binary_checkpoint_path(""));
  EXPECT_FALSE(binary_checkpoint_path("rcp"));
}

TEST(RecordCodec, SortUniqueRecordsMergesAndRefusesConflicts) {
  std::vector<TrialRecord> records = sample_records(10, 6);
  std::vector<TrialRecord> shuffled = records;
  std::reverse(shuffled.begin(), shuffled.end());
  shuffled.push_back(records[3]);  // exact duplicate: dropped
  const std::vector<TrialRecord> merged =
      sort_unique_records(std::move(shuffled));
  EXPECT_TRUE(merged == sort_unique_records(records));

  std::vector<TrialRecord> conflicting = records;
  conflicting.push_back(records[2]);
  conflicting.back().sdc_mask ^= 1;
  EXPECT_THROW(sort_unique_records(std::move(conflicting)),
               std::runtime_error);
}

}  // namespace
}  // namespace rangerpp::fi
