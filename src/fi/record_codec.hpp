// Compact binary record codec — the scheduler's wire format and the
// checkpoint-v2 on-disk format.  JSONL checkpoints spend most of their
// bytes on repeated key strings; at scheduler volumes (many concurrent
// requests streaming every record over a socket) that overhead dominates
// the frames, so records travel and persist in a varint-framed binary
// encoding instead:
//
//   stream  := magic "RPRC" | u32 LE version | varint len | header-body
//              | record*
//   record  := varint len | record-body
//
// Both bodies are sequences of LEB128 varints and length-prefixed
// strings in a fixed field order (see record_codec.cpp).  The per-record
// length prefix makes records self-delimiting the way JSONL lines are
// self-contained: a stream truncated by a killed writer loses at most
// the torn tail record, and decode recovers every whole record before
// it.  A version other than kRecordCodecVersion is refused loudly —
// silently misparsing a future field order would corrupt campaigns.
//
// Losslessness contract: to_jsonl() re-serialises a decoded stream
// through the exact writers report.cpp uses (checkpoint_header_line /
// trial_record_line), so the export is byte-identical to a natively
// written JSONL checkpoint and every existing merge/cmp gate keeps
// working on scheduler output.  load_checkpoint() sniffs the
// magic, so .rcp checkpoints are transparently readable wherever JSONL
// ones are.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fi/report.hpp"

namespace rangerpp::fi {

inline constexpr char kRecordCodecMagic[4] = {'R', 'P', 'R', 'C'};
inline constexpr std::uint32_t kRecordCodecVersion = 1;

// True when `bytes` begins with the codec magic — the format sniff
// load_checkpoint uses to route a file to the right decoder.
bool is_binary_checkpoint(std::string_view bytes);

// Runner-side convention: checkpoint paths ending ".rcp" are written in
// the binary format, everything else stays JSONL.
bool binary_checkpoint_path(std::string_view path);

// ---- Encoding ---------------------------------------------------------------

// Appends magic + version + the encoded header to `out`.
void encode_stream_header(std::string& out, const CheckpointHeader& h);

// Appends one length-prefixed record frame to `out`.
void encode_record(std::string& out, const TrialRecord& r);

// Record frames only (no stream header) — the scheduler's wire payload
// for incremental record batches.
std::string encode_records(const std::vector<TrialRecord>& records);

// ---- Decoding ---------------------------------------------------------------

// Decodes a full stream (header + records).  Throws std::runtime_error
// on bad magic, a version mismatch, or a malformed header; a truncated
// record tail is not an error (`torn_tail` reports it) — the valid
// prefix is recovered, mirroring the JSONL torn-final-line behaviour.
struct DecodedStream {
  CheckpointHeader header;
  std::vector<TrialRecord> records;
  bool torn_tail = false;
};
DecodedStream decode_stream(std::string_view bytes);

// Decodes a headerless record sequence (wire frames).  Same torn-tail
// tolerance; throws only on structurally malformed record bodies.
std::vector<TrialRecord> decode_records(std::string_view bytes,
                                        bool* torn_tail = nullptr);

// ---- Files ------------------------------------------------------------------

// Reads a binary checkpoint file; torn tail records are dropped
// silently (the killed-writer signature, exactly as load_checkpoint
// drops a torn final JSONL line).  Throws on open failure or a
// malformed/mismatched stream.
Checkpoint load_binary_checkpoint(const std::string& path);

// ---- Lossless JSONL export --------------------------------------------------

// The JSONL serialisation of (header, records) — byte-identical to a
// checkpoint written natively by write_checkpoint_header +
// append_trial_record.
std::string to_jsonl(const CheckpointHeader& h,
                     const std::vector<TrialRecord>& records);

// Writes (header, records) to `path` as a JSONL checkpoint: the
// to_jsonl bytes, through a temp file renamed over `path`, so a file
// that was itself one of the records' sources is replaced whole.
// `records` must be in trial order (see sort_unique_records).  Throws
// std::runtime_error when the file cannot be written.
void write_jsonl_checkpoint(const std::string& path, const CheckpointHeader& h,
                            const std::vector<TrialRecord>& records);

// Sorts records by trial index and drops exact duplicates; two
// conflicting records for one trial throw (deterministic trials cannot
// disagree).  The client-side normalisation step before export: shard
// partitions stream in index order per partition, so the merged
// ascending sequence is what a one-shot run would have written.
std::vector<TrialRecord> sort_unique_records(
    std::vector<TrialRecord> records);

}  // namespace rangerpp::fi
