#include "fi/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "fi/record_codec.hpp"
#include "util/table.hpp"

namespace rangerpp::fi {

namespace {

// Values written by us never contain quotes or backslashes
// (sanitise_label enforces it for the one free-form field), so the text
// form needs no escaping.

std::string sanitise_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s)
    if (c != '"' && c != '\\' && c != '\n' && c != '\r') out.push_back(c);
  return out;
}

// "node@element:bit,node@element:bit" — node names never contain '@' or
// ','; element and bit are decimal.  Stuck-at points (weight campaigns)
// append "s0"/"s1" after the bit; plain flips keep the bare grammar, so
// activation records are byte-identical to the pre-weight-subsystem
// format.
std::string encode_faults(const FaultSet& faults) {
  std::string out;
  for (const FaultPoint& f : faults) {
    if (!out.empty()) out.push_back(',');
    out += f.node_name + "@" + std::to_string(f.element) + ":" +
           std::to_string(f.bit);
    if (f.action == FaultAction::kStuck0) out += "s0";
    else if (f.action == FaultAction::kStuck1) out += "s1";
  }
  return out;
}

}  // namespace

bool operator==(const TrialRecord& a, const TrialRecord& b) {
  if (a.trial != b.trial || a.input != b.input || a.stratum != b.stratum ||
      a.sdc_mask != b.sdc_mask || a.faults.size() != b.faults.size())
    return false;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const FaultPoint& x = a.faults[i];
    const FaultPoint& y = b.faults[i];
    if (x.node_name != y.node_name || x.element != y.element ||
        x.bit != y.bit || x.action != y.action)
      return false;
  }
  return true;
}

std::string CheckpointHeader::fingerprint() const {
  // The strata table (node names × element counts × bit grouping) is the
  // graph's signature: hashing it into the fingerprint stops a resume or
  // merge from silently mixing checkpoints of different models that
  // happen to share every scalar setting.
  std::uint64_t graph_hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : strata_weights)
    graph_hash = (graph_hash ^ c) * 0x100000001b3ULL;
  std::string fp =
      "seed=" + std::to_string(seed) + "|dtype=" + dtype +
      "|n_bits=" + std::to_string(n_bits) +
      "|consecutive=" + std::to_string(consecutive_bits ? 1 : 0) +
      "|trials_per_input=" + std::to_string(trials_per_input) +
      "|inputs=" + std::to_string(inputs) +
      "|judges=" + std::to_string(judges) + "|sampling=" + sampling +
      "|bit_group=" + std::to_string(bit_group_size) +
      "|graph=" + std::to_string(graph_hash);
  // Weight campaigns fingerprint their fault-model kind and ECC;
  // activation campaigns keep the historical string byte-identical.
  if (fault_class != "activation")
    fp += "|class=" + fault_class + "|wkind=" + weight_kind + "|ecc=" + ecc;
  return fp;
}

std::string checkpoint_header_line(const CheckpointHeader& h) {
  char buf[512];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"type\":\"header\",\"label\":\"%s\",\"seed\":%" PRIu64
      ",\"dtype\":\"%s\",\"n_bits\":%d,\"consecutive\":%d,"
      "\"fault_class\":\"%s\",\"weight_kind\":\"%s\",\"ecc\":\"%s\","
      "\"trials_per_input\":%zu,\"inputs\":%zu,\"judges\":%zu,"
      "\"sampling\":\"%s\",\"bit_group\":%d,\"shard_index\":%zu,"
      "\"shard_count\":%zu,\"strata\":\"",
      sanitise_label(h.label).c_str(), h.seed, h.dtype.c_str(), h.n_bits,
      h.consecutive_bits ? 1 : 0, h.fault_class.c_str(),
      h.weight_kind.c_str(), h.ecc.c_str(), h.trials_per_input, h.inputs,
      h.judges, h.sampling.c_str(), h.bit_group_size, h.shard_index,
      h.shard_count);
  // Strata weights can exceed any fixed buffer (one entry per stratum),
  // so they are appended as a string instead of going through snprintf.
  std::string line(buf, static_cast<std::size_t>(n));
  line += h.strata_weights;
  line += "\"}\n";
  return line;
}

std::string trial_record_line(const TrialRecord& r) {
  std::string line = "{\"type\":\"trial\",\"t\":" +
                     std::to_string(r.trial) +
                     ",\"input\":" + std::to_string(r.input) +
                     ",\"faults\":\"" + encode_faults(r.faults) +
                     "\",\"stratum\":\"" + r.stratum +
                     "\",\"sdc\":" + std::to_string(r.sdc_mask) + "}\n";
  return line;
}

// ---- Report -----------------------------------------------------------------

CampaignReport build_report(
    std::vector<TrialRecord> records, std::size_t judge_count,
    std::size_t planned,
    const std::map<std::string, double>& stratum_weights) {
  if (judge_count == 0 || judge_count > 32)
    throw std::invalid_argument("build_report: judge_count out of range");
  std::vector<TrialRecord> unique = sort_unique_records(std::move(records));

  CampaignReport rep;
  rep.planned = planned;
  rep.judge_count = judge_count;
  rep.aggregate.assign(judge_count, CampaignResult{});
  std::map<std::string, StratumStats> by_stratum;
  for (const TrialRecord& r : unique) {
    StratumStats& s = by_stratum[r.stratum];
    if (s.sdcs.empty()) {
      s.key = r.stratum;
      s.sdcs.assign(judge_count, 0);
      const auto it = stratum_weights.find(r.stratum);
      if (it != stratum_weights.end()) s.weight = it->second;
    }
    ++s.trials;
    for (std::size_t j = 0; j < judge_count; ++j) {
      rep.aggregate[j].trials += 1;
      const bool sdc = (r.sdc_mask >> j) & 1u;
      rep.aggregate[j].sdcs += sdc ? 1 : 0;
      s.sdcs[j] += sdc ? 1 : 0;
    }
  }
  rep.records = std::move(unique);

  bool all_weighted = !by_stratum.empty();
  rep.strata.reserve(by_stratum.size());
  for (auto& [key, s] : by_stratum) {
    if (s.weight < 0.0) all_weighted = false;
    rep.strata.push_back(std::move(s));
  }
  if (all_weighted) {
    std::vector<double> w;
    std::vector<std::size_t> n;
    for (const StratumStats& s : rep.strata) {
      w.push_back(s.weight);
      n.push_back(s.trials);
    }
    for (std::size_t j = 0; j < judge_count; ++j) {
      std::vector<std::size_t> k;
      for (const StratumStats& s : rep.strata) k.push_back(s.sdcs[j]);
      rep.weighted.push_back(util::stratified95(w, k, n));
    }
  }
  return rep;
}

CampaignReport merge_checkpoints(const std::vector<std::string>& paths,
                                 CheckpointHeader* merged_header) {
  if (paths.empty())
    throw std::invalid_argument("merge_checkpoints: no files");
  std::vector<TrialRecord> records;
  CheckpointHeader first;
  std::map<std::string, double> weights;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Checkpoint cp = load_checkpoint(paths[i]);
    if (i == 0) {
      first = cp.header;
    } else if (cp.header.fingerprint() != first.fingerprint()) {
      throw std::runtime_error(
          "merge_checkpoints: " + paths[i] +
          " belongs to a different campaign\n  expected " +
          first.fingerprint() + "\n  found    " + cp.header.fingerprint());
    }
    if (weights.empty() && !cp.header.strata_weights.empty())
      weights = parse_strata_weights(cp.header.strata_weights);
    records.insert(records.end(),
                   std::make_move_iterator(cp.records.begin()),
                   std::make_move_iterator(cp.records.end()));
  }
  if (merged_header) {
    *merged_header = first;
    merged_header->shard_index = 0;
    merged_header->shard_count = 1;
    if (!weights.empty())
      merged_header->strata_weights = format_strata_weights(weights);
  }
  return build_report(std::move(records), first.judges,
                      first.trials_per_input * first.inputs, weights);
}

void print_report(const CampaignReport& report,
                  const std::vector<std::string>& judge_labels) {
  const auto label = [&](std::size_t j) {
    return judge_labels.size() == report.judge_count
               ? judge_labels[j]
               : "judge " + std::to_string(j);
  };
  std::printf("trials: %zu executed / %zu planned (%.1f%%)\n",
              report.executed(), report.planned,
              report.planned
                  ? 100.0 * static_cast<double>(report.executed()) /
                        static_cast<double>(report.planned)
                  : 0.0);

  util::Table agg({"metric", "SDCs", "SDC rate (%)", "Wilson 95% (%)",
                   "weighted (%)"});
  for (std::size_t j = 0; j < report.judge_count; ++j) {
    const CampaignResult& r = report.aggregate[j];
    const util::Interval w = r.wilson95();
    std::string weighted = "-";
    if (j < report.weighted.size())
      weighted = util::Table::fmt(100.0 * report.weighted[j].center, 3) +
                 " ±" +
                 util::Table::fmt(100.0 * report.weighted[j].half_width, 3);
    agg.add_row({label(j), std::to_string(r.sdcs),
                 util::Table::fmt(r.sdc_rate_pct(), 3),
                 util::Table::fmt(100.0 * w.center, 3) + " ±" +
                     util::Table::fmt(100.0 * w.half_width, 3),
                 weighted});
  }
  agg.print();

  if (report.strata.empty()) return;
  util::Table st({"stratum (layer:bits)", "weight", "trials",
                  "SDC rate ±95% per metric"});
  for (const StratumStats& s : report.strata) {
    std::string rates;
    for (std::size_t j = 0; j < report.judge_count; ++j) {
      const util::Interval w = s.wilson95(j);
      if (!rates.empty()) rates += "  ";
      rates += util::Table::fmt(100.0 * w.center, 2) + " ±" +
               util::Table::fmt(100.0 * w.half_width, 2);
    }
    st.add_row({s.key,
                s.weight >= 0.0 ? util::Table::fmt(s.weight, 4) : "-",
                std::to_string(s.trials), rates});
  }
  st.print();
}

std::map<std::string, double> parse_strata_weights(const std::string& s) {
  std::map<std::string, double> out;
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t end = s.find(';', start);
    if (end == std::string::npos) end = s.size();
    const std::string part = s.substr(start, end - start);
    const std::size_t eq = part.rfind('=');
    if (eq != std::string::npos && eq > 0)
      out[part.substr(0, eq)] = std::strtod(part.c_str() + eq + 1, nullptr);
    start = end + 1;
  }
  return out;
}

std::string format_strata_weights(const std::map<std::string, double>& w) {
  std::string out;
  char buf[32];
  for (const auto& [key, weight] : w) {
    if (!out.empty()) out.push_back(';');
    std::snprintf(buf, sizeof buf, "%.9g", weight);
    out += key + "=" + buf;
  }
  return out;
}

}  // namespace rangerpp::fi
