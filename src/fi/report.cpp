#include "fi/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "fi/record_codec.hpp"
#include "util/table.hpp"

namespace rangerpp::fi {

namespace {

// The checkpoint grammar is written and read only by this module, so
// parsing is a handful of key lookups rather than a JSON library.  Values
// written by us never contain quotes or backslashes (sanitise_label below
// enforces it for the one free-form field).

bool find_raw(const std::string& line, const std::string& key,
              std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t start = pos + needle.size();
  if (start >= line.size()) return false;
  if (line[start] == '"') {
    const std::size_t end = line.find('"', start + 1);
    if (end == std::string::npos) return false;
    out = line.substr(start + 1, end - start - 1);
    return true;
  }
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end >= line.size()) return false;  // torn line: no closing brace
  out = line.substr(start, end - start);
  return true;
}

bool find_u64(const std::string& line, const std::string& key,
              std::uint64_t& out) {
  std::string raw;
  if (!find_raw(line, key, raw) || raw.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(raw.c_str(), &end, 10);
  return end && *end == '\0';
}

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

bool decode_faults(const std::string& s, FaultSet& out) {
  out.clear();
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    const std::string part = s.substr(start, end - start);
    const std::size_t at = part.rfind('@');
    const std::size_t colon = part.rfind(':');
    if (at == std::string::npos || colon == std::string::npos ||
        colon <= at + 1)
      return false;
    FaultPoint f;
    f.node_name = part.substr(0, at);
    f.element = std::strtoull(part.c_str() + at + 1, nullptr, 10);
    char* bit_end = nullptr;
    f.bit = static_cast<int>(
        std::strtol(part.c_str() + colon + 1, &bit_end, 10));
    const std::string suffix(bit_end ? bit_end : "");
    if (suffix == "s0") f.action = FaultAction::kStuck0;
    else if (suffix == "s1") f.action = FaultAction::kStuck1;
    else if (!suffix.empty()) return false;
    out.push_back(std::move(f));
    start = end + 1;
  }
  return !out.empty();
}

bool parse_trial_line(const std::string& line, TrialRecord& r) {
  std::uint64_t u = 0;
  if (!find_u64(line, "t", u)) return false;
  r.trial = u;
  if (!find_u64(line, "input", u)) return false;
  r.input = static_cast<std::uint32_t>(u);
  std::string faults;
  if (!find_raw(line, "faults", faults) || !decode_faults(faults, r.faults))
    return false;
  if (!find_raw(line, "stratum", r.stratum)) return false;
  if (!find_u64(line, "sdc", u)) return false;
  r.sdc_mask = static_cast<std::uint32_t>(u);
  // A torn line would have lost its closing brace and failed find_raw
  // above; require it anyway for the numeric-tail case.
  return line.find('}') != std::string::npos;
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

void write_checkpoint_header(std::FILE* f, const CheckpointHeader& h) {
  const std::string line = checkpoint_header_line(h);
  std::fwrite(line.data(), 1, line.size(), f);
  std::fflush(f);
}

void append_trial_record(std::FILE* f, const TrialRecord& r) {
  const std::string line = trial_record_line(r);
  std::fwrite(line.data(), 1, line.size(), f);
}

Checkpoint load_checkpoint(const std::string& path) {
  // Binary (checkpoint-v2) files announce themselves with the codec
  // magic; route them to the binary decoder so every consumer of JSONL
  // checkpoints — resume, Suite::merge — reads both formats
  // transparently.
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe)
      throw std::runtime_error("checkpoint: cannot open " + path);
    char magic[4] = {};
    probe.read(magic, sizeof magic);
    if (probe.gcount() == sizeof magic &&
        is_binary_checkpoint(std::string_view(magic, sizeof magic)))
      return load_binary_checkpoint(path);
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  if (lines.empty())
    throw std::runtime_error("checkpoint: empty file " + path);

  Checkpoint cp;
  std::string type;
  if (!find_raw(lines[0], "type", type) || type != "header")
    throw std::runtime_error("checkpoint: missing header line in " + path);
  CheckpointHeader& h = cp.header;
  std::uint64_t u = 0;
  find_raw(lines[0], "label", h.label);
  if (!find_u64(lines[0], "seed", u))
    throw std::runtime_error("checkpoint: bad header (seed) in " + path);
  h.seed = u;
  if (!find_raw(lines[0], "dtype", h.dtype))
    throw std::runtime_error("checkpoint: bad header (dtype) in " + path);
  if (find_u64(lines[0], "n_bits", u)) h.n_bits = static_cast<int>(u);
  if (find_u64(lines[0], "consecutive", u)) h.consecutive_bits = u != 0;
  // Absent in pre-weight-subsystem files; the defaults are the
  // activation fault class those files were written under.
  find_raw(lines[0], "fault_class", h.fault_class);
  find_raw(lines[0], "weight_kind", h.weight_kind);
  find_raw(lines[0], "ecc", h.ecc);
  std::uint64_t tpi = 0, inputs = 0, judges = 0;
  if (!find_u64(lines[0], "trials_per_input", tpi) ||
      !find_u64(lines[0], "inputs", inputs) ||
      !find_u64(lines[0], "judges", judges))
    throw std::runtime_error("checkpoint: bad header (counts) in " + path);
  h.trials_per_input = tpi;
  h.inputs = inputs;
  h.judges = judges;
  find_raw(lines[0], "sampling", h.sampling);
  if (find_u64(lines[0], "bit_group", u))
    h.bit_group_size = static_cast<int>(u);
  if (find_u64(lines[0], "shard_index", u)) h.shard_index = u;
  if (find_u64(lines[0], "shard_count", u)) h.shard_count = u;
  find_raw(lines[0], "strata", h.strata_weights);

  for (std::size_t i = 1; i < lines.size(); ++i) {
    TrialRecord r;
    if (!find_raw(lines[i], "type", type) || type != "trial" ||
        !parse_trial_line(lines[i], r)) {
      if (i + 1 == lines.size()) break;  // torn final line: killed writer
      // A torn line mid-file (disk-full write, a writer killed while the
      // tail was later appended to, interleaved NFS writes) must not
      // discard the surrounding valid records: every trial line is
      // self-contained, so recovery keeps everything that parses and the
      // runner simply re-executes the lost trials on resume.  Warn so an
      // unexpectedly corrupted file is still visible.
      std::fprintf(stderr,
                   "checkpoint: warning: skipping malformed line %zu in %s "
                   "(recovering the remaining records; missing trials will "
                   "be re-executed on resume)\n",
                   i + 1, path.c_str());
      continue;
    }
    cp.records.push_back(std::move(r));
  }
  return cp;
}

// ---- Report -----------------------------------------------------------------

CampaignReport build_report(
    std::vector<TrialRecord> records, std::size_t judge_count,
    std::size_t planned,
    const std::map<std::string, double>& stratum_weights) {
  if (judge_count == 0 || judge_count > 32)
    throw std::invalid_argument("build_report: judge_count out of range");
  std::sort(records.begin(), records.end(),
            [](const TrialRecord& a, const TrialRecord& b) {
              return a.trial < b.trial;
            });
  // Deduplicate (merged shard files may overlap a resumed range); two
  // records for one trial index must agree — trials are deterministic.
  std::vector<TrialRecord> unique;
  unique.reserve(records.size());
  for (TrialRecord& r : records) {
    if (!unique.empty() && unique.back().trial == r.trial) {
      if (!(unique.back() == r))
        throw std::runtime_error(
            "build_report: conflicting records for trial " +
            std::to_string(r.trial) +
            " (checkpoints disagree about a deterministic trial)");
      continue;
    }
    unique.push_back(std::move(r));
  }

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
