// RPRC, the binary record codec — the one on-disk checkpoint format and
// the scheduler's wire format.  Every checkpoint a suite, a shard merge,
// the scheduler daemon or a scheduler client writes is an RPRC stream:
//
//   stream  := magic "RPRC" | u32 LE version | varint len | header-body
//              | record*
//   record  := varint len | record-body
//
// Both bodies are sequences of LEB128 varints and length-prefixed
// strings in a fixed field order (see record_codec.cpp).  The per-record
// length prefix makes records self-delimiting: a stream truncated by a
// killed writer loses at most the torn tail record, and decode recovers
// every whole record before it.  A version other than
// kRecordCodecVersion is refused loudly — silently misparsing a future
// field order would corrupt campaigns.
//
// JSONL survives only as the canonical text form of a record
// (checkpoint_header_line / trial_record_line in report.hpp, to_jsonl
// below): digests and exports print it, nothing reads it back.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fi/report.hpp"

namespace rangerpp::fi {

inline constexpr char kRecordCodecMagic[4] = {'R', 'P', 'R', 'C'};
inline constexpr std::uint32_t kRecordCodecVersion = 1;

// ---- Encoding ---------------------------------------------------------------

// Appends magic + version + the encoded header to `out`.
void encode_stream_header(std::string& out, const CheckpointHeader& h);

// Appends one length-prefixed record frame to `out`.
void encode_record(std::string& out, const TrialRecord& r);

// Record frames only (no stream header) — the scheduler's wire payload
// for incremental record batches, and a checkpoint append.
std::string encode_records(const std::vector<TrialRecord>& records);

// ---- Decoding ---------------------------------------------------------------

// Decodes a full stream (header + records).  Throws std::runtime_error
// on bad magic, a version mismatch, or a malformed header; a truncated
// record tail is not an error (`torn_tail` reports it) — the valid
// prefix is recovered.
Checkpoint decode_stream(std::string_view bytes);

// Decodes a headerless record sequence (wire frames).  Same torn-tail
// tolerance; throws only on structurally malformed record bodies.
std::vector<TrialRecord> decode_records(std::string_view bytes,
                                        bool* torn_tail = nullptr);

// ---- Files ------------------------------------------------------------------

// Reads a checkpoint file.  A torn tail record — the killed-writer
// signature — is dropped (`torn_tail` says so).  Throws
// std::runtime_error naming the path when the file cannot be read, does
// not start with the RPRC magic (a JSONL checkpoint from an older
// build: re-run the campaign, its records are a pure function of the
// spec), or is malformed.
Checkpoint load_checkpoint(const std::string& path);

// Writes (header, records) to `path` through a temp file renamed over
// it, so a file that was itself one of the records' sources is replaced
// whole and a crash mid-write leaves the old file intact.  `records`
// must be in trial order (see sort_unique_records).  Throws
// std::runtime_error naming the path when any write, flush, close or
// the rename fails.
void write_checkpoint(const std::string& path, const CheckpointHeader& h,
                      const std::vector<TrialRecord>& records);

// Appends record frames to the checkpoint at `path` (written first by
// write_checkpoint).  Throws std::runtime_error naming the path on any
// failed write, flush or close — a full disk or a file-size limit stops
// the run instead of leaving a silently short file.
void append_records(const std::string& path,
                    const std::vector<TrialRecord>& records);

// ---- Canonical text form ----------------------------------------------------

// The JSONL text of (header, records): checkpoint_header_line followed
// by one trial_record_line per record.
std::string to_jsonl(const CheckpointHeader& h,
                     const std::vector<TrialRecord>& records);

// ---- Record sets ------------------------------------------------------------

// Sorts records by trial index and drops exact duplicates; two
// conflicting records for one trial throw (deterministic trials cannot
// disagree).  Shard partitions stream in index order per partition, so
// the merged ascending sequence is what a one-shot run would have
// written.
std::vector<TrialRecord> sort_unique_records(
    std::vector<TrialRecord> records);

}  // namespace rangerpp::fi
