#include "fi/record_codec.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace rangerpp::fi {

namespace {

// Field order of the two body encodings.  Changing either order (or a
// field's representation) is a format change: bump kRecordCodecVersion.
//
//   header-body := str label | u64 seed | str dtype | u64 n_bits
//                | u8 consecutive | str fault_class | str weight_kind
//                | str ecc | u64 trials_per_input | u64 inputs
//                | u64 judges | str sampling | u64 bit_group
//                | u64 shard_index | u64 shard_count | str strata
//   record-body := u64 trial | u64 input | u64 n_faults | fault*
//                | str stratum | u64 sdc_mask
//   fault       := str node_name | u64 element | svar bit | u8 action
//
// u64 = LEB128 varint; svar = zigzag varint; str = varint length + bytes.

constexpr std::size_t kMaxChunk = 1u << 24;  // string/record length cap

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_svarint(std::string& out, std::int64_t v) {
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s.data(), s.size());
}

// Cursor-style reader over the encoded bytes.  get_* return false on
// truncation (the torn-tail signal); malformed *content* inside a
// complete frame throws at the call sites instead.
struct Reader {
  std::string_view in;

  bool empty() const { return in.empty(); }

  bool get_varint(std::uint64_t& v) {
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (in.empty()) return false;
      const unsigned char b = static_cast<unsigned char>(in.front());
      in.remove_prefix(1);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return true;
    }
    return false;  // > 10 bytes: not a varint we ever wrote
  }

  bool get_svarint(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!get_varint(u)) return false;
    v = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return true;
  }

  bool get_string(std::string& s) {
    std::uint64_t len = 0;
    if (!get_varint(len) || len > kMaxChunk || in.size() < len)
      return false;
    s.assign(in.data(), len);
    in.remove_prefix(len);
    return true;
  }

  bool get_byte(std::uint8_t& b) {
    if (in.empty()) return false;
    b = static_cast<std::uint8_t>(in.front());
    in.remove_prefix(1);
    return true;
  }
};

void encode_header_body(std::string& out, const CheckpointHeader& h) {
  put_string(out, h.label);
  put_varint(out, h.seed);
  put_string(out, h.dtype);
  put_varint(out, static_cast<std::uint64_t>(h.n_bits));
  out.push_back(h.consecutive_bits ? 1 : 0);
  put_string(out, h.fault_class);
  put_string(out, h.weight_kind);
  put_string(out, h.ecc);
  put_varint(out, h.trials_per_input);
  put_varint(out, h.inputs);
  put_varint(out, h.judges);
  put_string(out, h.sampling);
  put_varint(out, static_cast<std::uint64_t>(h.bit_group_size));
  put_varint(out, h.shard_index);
  put_varint(out, h.shard_count);
  put_string(out, h.strata_weights);
}

CheckpointHeader decode_header_body(std::string_view body) {
  Reader r{body};
  CheckpointHeader h;
  const auto fail = [] {
    throw std::runtime_error("record_codec: malformed stream header");
  };
  const auto read_u64 = [&](std::uint64_t& out) {
    if (!r.get_varint(out)) fail();
  };
  const auto read_str = [&](std::string& out) {
    if (!r.get_string(out)) fail();
  };
  std::uint64_t u = 0;
  std::uint8_t b = 0;
  read_str(h.label);
  read_u64(h.seed);
  read_str(h.dtype);
  read_u64(u);
  h.n_bits = static_cast<int>(u);
  if (!r.get_byte(b)) fail();
  h.consecutive_bits = b != 0;
  read_str(h.fault_class);
  read_str(h.weight_kind);
  read_str(h.ecc);
  read_u64(u);
  h.trials_per_input = u;
  read_u64(u);
  h.inputs = u;
  read_u64(u);
  h.judges = u;
  read_str(h.sampling);
  read_u64(u);
  h.bit_group_size = static_cast<int>(u);
  read_u64(h.shard_index);
  read_u64(h.shard_count);
  read_str(h.strata_weights);
  if (!r.empty()) fail();
  return h;
}

void encode_record_body(std::string& out, const TrialRecord& r) {
  put_varint(out, r.trial);
  put_varint(out, r.input);
  put_varint(out, r.faults.size());
  for (const FaultPoint& f : r.faults) {
    put_string(out, f.node_name);
    put_varint(out, f.element);
    put_svarint(out, f.bit);
    out.push_back(static_cast<char>(f.action));
  }
  put_string(out, r.stratum);
  put_varint(out, r.sdc_mask);
}

TrialRecord decode_record_body(std::string_view body) {
  Reader r{body};
  TrialRecord rec;
  std::uint64_t u = 0;
  if (!r.get_varint(rec.trial) || !r.get_varint(u))
    throw std::runtime_error("record_codec: malformed record");
  rec.input = static_cast<std::uint32_t>(u);
  std::uint64_t n_faults = 0;
  if (!r.get_varint(n_faults) || n_faults > kMaxChunk)
    throw std::runtime_error("record_codec: malformed record");
  rec.faults.reserve(n_faults);
  for (std::uint64_t i = 0; i < n_faults; ++i) {
    FaultPoint f;
    std::int64_t bit = 0;
    std::uint8_t action = 0;
    if (!r.get_string(f.node_name) || !r.get_varint(u) ||
        !r.get_svarint(bit) || !r.get_byte(action) ||
        action > static_cast<std::uint8_t>(FaultAction::kStuck1))
      throw std::runtime_error("record_codec: malformed fault point");
    f.element = u;
    f.bit = static_cast<int>(bit);
    f.action = static_cast<FaultAction>(action);
    rec.faults.push_back(std::move(f));
  }
  if (!r.get_string(rec.stratum) || !r.get_varint(u) || !r.empty())
    throw std::runtime_error("record_codec: malformed record");
  rec.sdc_mask = static_cast<std::uint32_t>(u);
  return rec;
}

// Pulls the next length-prefixed frame off `in`; false = torn tail
// (incomplete length or body), leaving `in` untouched for the caller to
// report how many bytes were abandoned if it cares.
bool next_frame(std::string_view& in, std::string_view& frame) {
  Reader r{in};
  std::uint64_t len = 0;
  if (!r.get_varint(len)) return false;
  if (len > kMaxChunk)
    throw std::runtime_error("record_codec: oversized record frame");
  if (r.in.size() < len) return false;
  frame = r.in.substr(0, len);
  in = r.in.substr(len);
  return true;
}

bool has_magic(std::string_view bytes) {
  return bytes.starts_with(
      std::string_view(kRecordCodecMagic, sizeof kRecordCodecMagic));
}

// Writes `bytes` to `path` opened with `mode`; false when the open, the
// write or the close fails (fclose flushes, so a failed flush fails it).
bool write_file(const std::string& path, const char* mode,
                std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (!f) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace

void encode_stream_header(std::string& out, const CheckpointHeader& h) {
  out.append(kRecordCodecMagic, sizeof kRecordCodecMagic);
  for (unsigned i = 0; i < 32; i += 8)
    out.push_back(static_cast<char>((kRecordCodecVersion >> i) & 0xff));
  std::string body;
  encode_header_body(body, h);
  put_varint(out, body.size());
  out += body;
}

void encode_record(std::string& out, const TrialRecord& r) {
  std::string body;
  encode_record_body(body, r);
  put_varint(out, body.size());
  out += body;
}

std::string encode_records(const std::vector<TrialRecord>& records) {
  std::string out;
  for (const TrialRecord& r : records) encode_record(out, r);
  return out;
}

Checkpoint decode_stream(std::string_view bytes) {
  if (!has_magic(bytes))
    throw std::runtime_error("record_codec: missing stream magic");
  bytes.remove_prefix(sizeof kRecordCodecMagic);
  if (bytes.size() < 4)
    throw std::runtime_error("record_codec: truncated version field");
  std::uint32_t version = 0;
  for (unsigned i = 0; i < 4; ++i)
    version |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[i]))
               << (8 * i);
  bytes.remove_prefix(4);
  if (version != kRecordCodecVersion)
    throw std::runtime_error(
        "record_codec: stream version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kRecordCodecVersion) +
        "); refusing to guess the field layout");
  std::string_view header_frame;
  if (!next_frame(bytes, header_frame))
    throw std::runtime_error("record_codec: truncated stream header");
  Checkpoint out;
  out.header = decode_header_body(header_frame);
  out.records = decode_records(bytes, &out.torn_tail);
  return out;
}

std::vector<TrialRecord> decode_records(std::string_view bytes,
                                        bool* torn_tail) {
  std::vector<TrialRecord> out;
  std::string_view frame;
  while (!bytes.empty()) {
    if (!next_frame(bytes, frame)) {
      if (torn_tail) *torn_tail = true;
      return out;
    }
    out.push_back(decode_record_body(frame));
  }
  if (torn_tail) *torn_tail = false;
  return out;
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (!has_magic(bytes))
    throw std::runtime_error(
        "checkpoint: " + path +
        " is not an RPRC checkpoint (JSONL checkpoints are no longer "
        "read; re-run the campaign to rebuild it)");
  try {
    return decode_stream(bytes);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("checkpoint: " + path + ": " + e.what());
  }
}

void write_checkpoint(const std::string& path, const CheckpointHeader& h,
                      const std::vector<TrialRecord>& records) {
  std::string bytes;
  encode_stream_header(bytes, h);
  for (const TrialRecord& r : records) encode_record(bytes, r);
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  const bool wrote = write_file(tmp, "wb", bytes);
  if (wrote) std::filesystem::rename(tmp, path, ec);
  if (!wrote || ec) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot write " + path);
  }
}

void append_records(const std::string& path,
                    const std::vector<TrialRecord>& records) {
  if (!write_file(path, "ab", encode_records(records)))
    throw std::runtime_error("checkpoint: cannot append to " + path);
}

std::string to_jsonl(const CheckpointHeader& h,
                     const std::vector<TrialRecord>& records) {
  std::string out = checkpoint_header_line(h);
  for (const TrialRecord& r : records) out += trial_record_line(r);
  return out;
}

std::vector<TrialRecord> sort_unique_records(
    std::vector<TrialRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TrialRecord& a, const TrialRecord& b) {
              return a.trial < b.trial;
            });
  std::vector<TrialRecord> unique;
  unique.reserve(records.size());
  for (TrialRecord& r : records) {
    if (!unique.empty() && unique.back().trial == r.trial) {
      if (!(unique.back() == r))
        throw std::runtime_error(
            "sort_unique_records: conflicting records for trial " +
            std::to_string(r.trial) +
            " (streams disagree about a deterministic trial)");
      continue;
    }
    unique.push_back(std::move(r));
  }
  return unique;
}

}  // namespace rangerpp::fi
