// Campaign aggregation layer: per-trial records, checkpoint headers,
// shard merging and the statistical campaign report.  Checkpoint files
// are RPRC streams, read and written by record_codec.hpp; this module
// owns the records themselves and their canonical JSONL text form:
//
//   {"type":"header","label":"LeNet","seed":2021,"dtype":"fixed32",...}
//   {"type":"trial","t":17,"input":0,"faults":"conv1@37:29",
//    "stratum":"conv1:b24-31","sdc":1}
//
// The header carries the campaign fingerprint (seed, datatype, fault
// model, trial counts, sampling mode) so resume and merge can refuse
// mismatched files.
//
// Determinism contract: a trial's record is a pure function of the
// campaign fingerprint and the trial index — never of which machine,
// shard, kernel backend, batch size or thread count executed it (backends
// and batching are bit-identical by construction, which is why they are
// deliberately NOT part of the fingerprint).  That is what makes
// comparing merge_checkpoints' records with a single run's (TrialRecord
// operator==, or `cmp` of the written files) a meaningful
// reproducibility gate.
//
// Thread-safety: everything here is plain value manipulation; no
// function is safe to call concurrently on the same mutable object, and
// CampaignRunner is the single writer of any checkpoint file.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fi/campaign.hpp"
#include "util/stats.hpp"

namespace rangerpp::fi {

// Outcome of one executed trial.  `sdc_mask` bit j is set when judge j
// called the trial an SDC (counting more than 32 judges would be a config
// error long before it is a representation problem).
struct TrialRecord {
  std::uint64_t trial = 0;
  std::uint32_t input = 0;
  FaultSet faults;
  std::string stratum;
  std::uint32_t sdc_mask = 0;
};
// Strict per-trial equality: index, input, fault set, stratum, verdicts.
bool operator==(const TrialRecord& a, const TrialRecord& b);

struct CheckpointHeader {
  std::string label;  // free-form (model name); informational only
  std::uint64_t seed = 0;
  std::string dtype;
  int n_bits = 1;
  bool consecutive_bits = false;
  // Fault-class axis (weight-memory campaigns).  "activation" keeps the
  // pre-weight-subsystem fingerprint string byte-identical, so existing
  // activation checkpoints stay resumable; weight campaigns append
  // class/kind/ecc to the fingerprint (a weight checkpoint can never be
  // confused with an activation one, nor SEC-DED with unprotected).
  std::string fault_class = "activation";  // "activation" | "weight"
  std::string weight_kind = "single";      // WeightFaultKind token
  std::string ecc = "none";                // EccModel token
  std::size_t trials_per_input = 0;
  std::size_t inputs = 0;
  std::size_t judges = 0;
  std::string sampling = "uniform";  // "uniform" | "stratified"
  int bit_group_size = 8;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  // "key=weight;..." — per-stratum site-probability mass, recorded so a
  // merge of shard files can rebuild the weighted aggregate without the
  // model graph.
  std::string strata_weights;

  // Campaign identity: everything that must match for two files to
  // describe trials of the same campaign.  Shard-agnostic and
  // label-agnostic.
  std::string fingerprint() const;
};

// A decoded checkpoint (record_codec.hpp's load_checkpoint).
struct Checkpoint {
  CheckpointHeader header;
  std::vector<TrialRecord> records;  // in file order
  bool torn_tail = false;  // the stream ended mid-record (killed writer)
};

// The canonical JSONL text of a header / a record, newline included —
// the one text form of the records (to_jsonl, perfbench's record digest
// and record_identity_test print it; nothing parses it back).
std::string checkpoint_header_line(const CheckpointHeader& h);
std::string trial_record_line(const TrialRecord& r);

// ---- Report -----------------------------------------------------------------

struct StratumStats {
  std::string key;
  double weight = -1.0;  // site-probability mass; < 0 = unknown
  std::size_t trials = 0;
  std::vector<std::size_t> sdcs;  // per judge

  util::Interval wilson95(std::size_t judge) const {
    return util::wilson95(sdcs[judge], trials);
  }
};

struct CampaignReport {
  std::size_t planned = 0;  // trials the covered shard set should execute
  std::size_t judge_count = 0;
  std::vector<TrialRecord> records;       // sorted by trial index
  std::vector<CampaignResult> aggregate;  // per judge, raw counts
  std::vector<StratumStats> strata;       // sorted by key
  // Weighted (stratified-estimator) aggregate per judge; empty when any
  // observed stratum has no recorded weight.  Under uniform sampling this
  // agrees with `aggregate` up to sampling noise; under stratified
  // sampling it is the unbiased rate, `aggregate` is not.
  std::vector<util::Interval> weighted;

  std::size_t executed() const { return records.size(); }
};

// Builds a report from records, sorted and deduplicated by
// sort_unique_records: two records for the same trial index must be
// identical — anything else means two checkpoints disagree about a
// deterministic trial, and throws.
CampaignReport build_report(
    std::vector<TrialRecord> records, std::size_t judge_count,
    std::size_t planned,
    const std::map<std::string, double>& stratum_weights = {});

// Merges shard checkpoints into one report.  All fingerprints must match;
// overlapping trials must agree.  `planned` becomes the full campaign
// size (trials_per_input × inputs).  When `merged_header` is non-null it
// receives a shard-agnostic header suitable for writing a merged file.
CampaignReport merge_checkpoints(const std::vector<std::string>& paths,
                                 CheckpointHeader* merged_header = nullptr);

// Renders aggregate + per-stratum tables to stdout.  `judge_labels` (when
// sized to judge_count) names the per-judge columns.
void print_report(const CampaignReport& report,
                  const std::vector<std::string>& judge_labels = {});

// "key=w;key=w" <-> map helpers for CheckpointHeader::strata_weights.
std::map<std::string, double> parse_strata_weights(const std::string& s);
std::string format_strata_weights(const std::map<std::string, double>& w);

}  // namespace rangerpp::fi
