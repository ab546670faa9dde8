#include "fi/suite.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/flops_profiler.hpp"
#include "fi/engine.hpp"
#include "fi/record_codec.hpp"
#include "ops/backend.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"
#include "util/trace.hpp"

namespace rangerpp::fi {

namespace {

std::string_view act_token_impl(ops::OpKind act) {
  switch (act) {
    case ops::OpKind::kInput: return "default";
    case ops::OpKind::kRelu: return "relu";
    case ops::OpKind::kTanh: return "tanh";
    case ops::OpKind::kSigmoid: return "sigmoid";
    case ops::OpKind::kElu: return "elu";
    default: return "act";
  }
}

// Whether a weight-fault kind consumes the n_bits count parameter.
// fault_token and same_fault must agree on this: a kind that ignores
// n_bits must neither encode it in the cell id nor let it distinguish
// two otherwise-identical cells (which would compile two cells sharing
// one checkpoint filename and abort the suite mid-run).
bool weight_kind_uses_count(WeightFaultKind k) {
  return k == WeightFaultKind::kMultiBit ||
         k == WeightFaultKind::kConsecutiveBurst ||
         k == WeightFaultKind::kRowBurst;
}

// Appends are piecewise (no "lit" + std::string temporaries): gcc 12's
// -Wrestrict misfires on the inlined operator+ chains under -O2, and the
// CI legs build with -Werror.
std::string fault_token(const FaultModelSpec& f) {
  if (f.cls == FaultClass::kWeight) {
    std::string t = "w";
    t += weight_fault_kind_token(f.wkind);
    if (weight_kind_uses_count(f.wkind)) t += std::to_string(f.n_bits);
    if (f.ecc.kind != EccKind::kNone) {
      t += '-';
      t += ecc_token(f.ecc);
    }
    return t;
  }
  std::string t = "b";
  t += std::to_string(f.n_bits);
  if (f.consecutive) t += 'c';
  return t;
}


// Appends are piecewise (no "lit" + std::string temporaries): gcc 12's
// -Wrestrict misfires on the inlined operator+ chains under -O2, and the
// CI legs build with -Werror.
std::string cell_id_of(const SuiteCell& c) {
  std::string id = models::model_token(c.model);
  if (c.act != ops::OpKind::kInput) {
    id += '+';
    id += act_token_impl(c.act);
  }
  id += '.';
  id += dtype_token(c.dtype);
  id += '.';
  id += fault_token(c.fault);
  id += '.';
  id += technique_token(c.technique);
  return id;
}

std::string cell_label_of(const SuiteCell& c) {
  std::string label = models::model_name(c.model);
  if (c.act != ops::OpKind::kInput) {
    label += '+';
    label += act_token_impl(c.act);
  }
  if (c.technique == Technique::kRanger) label += "+ranger";
  else if (c.technique == Technique::kRangerPaired) label += "+ranger-paired";
  return label;
}

bool same_fault(const FaultModelSpec& a, const FaultModelSpec& b) {
  if (a.cls != b.cls) return false;
  if (a.cls == FaultClass::kWeight)
    return a.wkind == b.wkind &&
           (!weight_kind_uses_count(a.wkind) || a.n_bits == b.n_bits) &&
           a.ecc.kind == b.ecc.kind && a.ecc.coverage == b.ecc.coverage;
  return a.n_bits == b.n_bits && a.consecutive == b.consecutive;
}

bool same_dims(const SuiteCell& a, const SuiteCell& b) {
  return a.model == b.model && a.act == b.act && a.dtype == b.dtype &&
         same_fault(a.fault, b.fault);
}

const SuiteCellResult* find_cell(const SuiteResult& r, models::ModelId id,
                                 ops::OpKind act, tensor::DType dtype,
                                 const FaultModelSpec& fault, Technique t) {
  for (const SuiteCellResult& c : r.cells)
    if (c.cell.model == id && c.cell.act == act && c.cell.dtype == dtype &&
        same_fault(c.cell.fault, fault) && c.cell.technique == t)
      return &c;
  return nullptr;
}

std::string reduction_str(double orig, double prot) {
  return prot > 0.0 ? util::Table::fmt(orig / prot, 1) + "x" : "inf";
}

// The report printers' fault selectors, spelled as functions instead of
// partial aggregate initialisers ({n, false} leaves cls/wkind/ecc to
// their defaults, which -Wextra flags under the CI -Werror legs).
FaultModelSpec activation_fault(int n_bits) {
  FaultModelSpec f;
  f.n_bits = n_bits;
  return f;
}

FaultModelSpec single_bit_fault() { return activation_fault(1); }

}  // namespace

std::string fault_spec_token(const FaultModelSpec& f) {
  return fault_token(f);
}

std::optional<FaultModelSpec> fault_spec_from_token(std::string_view s) {
  FaultModelSpec f;
  if (s.starts_with("b")) {
    // "b<N>[c]" — activation flips, optional consecutive-burst suffix.
    s.remove_prefix(1);
    if (s.ends_with("c")) {
      f.consecutive = true;
      s.remove_suffix(1);
    }
    std::uint64_t n = 0;
    if (!util::parse_u64(std::string(s).c_str(), n) || n < 1 || n > 64)
      return std::nullopt;
    f.n_bits = static_cast<int>(n);
    return f;
  }
  if (!s.starts_with("w")) return std::nullopt;
  s.remove_prefix(1);
  f.cls = FaultClass::kWeight;
  // "<kind>[<n>][-<ecc>]".  Kind tokens never contain '-', ecc tokens
  // never introduce one, so the first '-' splits the two parts.  The
  // count digits abut the kind token ("multi3"), and two kinds end in a
  // digit themselves ("stuck0"/"stuck1") — match known kind tokens as
  // prefixes, longest first, and require the remainder to be a count
  // exactly when the kind takes one.
  std::string_view ecc_part;
  if (const std::size_t dash = s.find('-'); dash != std::string_view::npos) {
    ecc_part = s.substr(dash + 1);
    s = s.substr(0, dash);
  }
  static constexpr WeightFaultKind kKinds[] = {
      WeightFaultKind::kStuckAt0,         WeightFaultKind::kStuckAt1,
      WeightFaultKind::kConsecutiveBurst, WeightFaultKind::kSingleBit,
      WeightFaultKind::kMultiBit,         WeightFaultKind::kRowBurst,
  };
  bool matched = false;
  for (const WeightFaultKind kind : kKinds) {
    const std::string_view token = weight_fault_kind_token(kind);
    if (!s.starts_with(token)) continue;
    const std::string_view rest = s.substr(token.size());
    if (weight_kind_uses_count(kind)) {
      std::uint64_t n = 0;
      if (!util::parse_u64(std::string(rest).c_str(), n) || n < 1 ||
          n > 4096)
        continue;
      f.n_bits = static_cast<int>(n);
    } else if (!rest.empty()) {
      continue;
    } else {
      f.n_bits = 1;
    }
    f.wkind = kind;
    matched = true;
    break;
  }
  if (!matched) return std::nullopt;
  if (!ecc_part.empty()) {
    const auto ecc = ecc_from_token(ecc_part);
    // A bare "none" never appears in printed tokens; reject it so the
    // grammar stays one-to-one with fault_spec_token's output.
    if (!ecc || ecc->kind == EccKind::kNone) return std::nullopt;
    f.ecc = *ecc;
  }
  return f;
}

std::string_view technique_token(Technique t) {
  switch (t) {
    case Technique::kUnprotected: return "unprotected";
    case Technique::kRanger: return "ranger";
    case Technique::kRangerPaired: return "ranger-paired";
  }
  return "?";
}

std::optional<Technique> technique_from_token(std::string_view s) {
  if (s == "unprotected") return Technique::kUnprotected;
  if (s == "ranger") return Technique::kRanger;
  if (s == "ranger-paired") return Technique::kRangerPaired;
  return std::nullopt;
}

std::string_view act_token(ops::OpKind act) { return act_token_impl(act); }

std::string_view dtype_token(tensor::DType d) {
  switch (d) {
    case tensor::DType::kFixed32: return "fixed32";
    case tensor::DType::kFixed16: return "fixed16";
    case tensor::DType::kInt8: return "int8";
    case tensor::DType::kFloat32: return "float32";
  }
  return "?";
}

std::optional<tensor::DType> dtype_from_token(std::string_view s) {
  if (s == "fixed32") return tensor::DType::kFixed32;
  if (s == "fixed16") return tensor::DType::kFixed16;
  if (s == "int8") return tensor::DType::kInt8;
  if (s == "float32") return tensor::DType::kFloat32;
  return std::nullopt;
}

std::optional<ops::OpKind> act_from_token(std::string_view s) {
  if (s == "default") return ops::OpKind::kInput;
  if (s == "relu") return ops::OpKind::kRelu;
  if (s == "tanh") return ops::OpKind::kTanh;
  if (s == "sigmoid") return ops::OpKind::kSigmoid;
  if (s == "elu") return ops::OpKind::kElu;
  return std::nullopt;
}

std::string cell_checkpoint_name(const std::string& suite,
                                 const SuiteCell& cell,
                                 std::size_t shard_index,
                                 std::size_t shard_count) {
  return suite + "." + cell.id + ".s" + std::to_string(shard_index) + "of" +
         std::to_string(shard_count) + ".rcp";
}

std::size_t cell_shard_index(std::size_t suite_shard_index,
                             std::size_t shard_count,
                             std::size_t global_offset) {
  // Suite trial g = offset + t runs when g % N == i, i.e. the cell-local
  // stream is sharded at index (i - offset) mod N.
  return (suite_shard_index + shard_count - global_offset % shard_count) %
         shard_count;
}

RunnerConfig cell_runner_config(const SuiteSpec& spec,
                                const SuiteCell& cell) {
  RunnerConfig rc;
  rc.campaign.dtype = cell.dtype;
  rc.campaign.n_bits = cell.fault.n_bits;
  rc.campaign.consecutive_bits = cell.fault.consecutive;
  rc.campaign.fault_class = cell.fault.cls;
  rc.campaign.weight_fault =
      WeightFaultModel{cell.fault.wkind, cell.fault.n_bits};
  rc.campaign.ecc = cell.fault.ecc;
  rc.campaign.trials_per_input = cell.trials_per_input;
  rc.campaign.seed = spec.seed;
  rc.campaign.threads = spec.threads;
  rc.campaign.verify_plan = spec.verify_plan;
  rc.stratified = spec.stratified;
  rc.check_every = spec.check_every;
  rc.max_new_trials = spec.max_new_trials;
  rc.target_half_width_pct = spec.target_half_width_pct;
  rc.shard_count = spec.shard_count;
  rc.shard_index = cell_shard_index(spec.shard_index, spec.shard_count,
                                    cell.shard_offset);
  rc.label = cell.label;
  return rc;
}

SuitePlan compile_suite(const SuiteSpec& spec) {
  if (spec.models.empty())
    throw std::invalid_argument("compile_suite: no models");
  if (spec.acts.empty() || spec.dtypes.empty() || spec.faults.empty() ||
      spec.techniques.empty())
    throw std::invalid_argument("compile_suite: empty grid dimension");
  if (spec.inputs == 0)
    throw std::invalid_argument("compile_suite: inputs == 0");
  if (spec.trials_divisor == 0)
    throw std::invalid_argument("compile_suite: trials_divisor == 0");
  if (spec.check_every == 0)
    throw std::invalid_argument("compile_suite: check_every == 0");
  if (spec.stratified.bit_group_size < 1 ||
      spec.stratified.bit_group_size > 64)
    throw std::invalid_argument(
        "compile_suite: bit_group_size must be in [1, 64]");
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count)
    throw std::invalid_argument(
        "compile_suite: bad shard spec (want i/N with i < N)");
  // The name lands in checkpoint filenames and unescaped in the JSON
  // manifest: restrict it to a safe identifier alphabet.
  if (spec.name.empty())
    throw std::invalid_argument("compile_suite: empty suite name");
  for (const char c : spec.name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_' || c == '-'))
      throw std::invalid_argument(
          "compile_suite: suite name must use only [A-Za-z0-9._-], got '" +
          spec.name + "'");
  for (const FaultModelSpec& f : spec.faults) {
    if (f.n_bits < 1)
      throw std::invalid_argument("compile_suite: n_bits < 1");
    if (f.cls == FaultClass::kWeight &&
        (f.ecc.coverage < 0.0 || f.ecc.coverage > 1.0))
      throw std::invalid_argument(
          "compile_suite: ecc coverage must be in [0, 1]");
    // The planner's strata are (layer, bit-group) cells of one flipped
    // bit: refuse here, at submit, what TrialPlanner would refuse only
    // inside a running slice.
    if (spec.stratified.enabled &&
        (f.cls == FaultClass::kWeight || f.n_bits != 1 || f.consecutive))
      throw std::invalid_argument(
          "compile_suite: stratified sampling needs single-bit activation "
          "faults");
  }
  // Duplicate grid values would compile two cells with the same id —
  // and therefore the same checkpoint file; refuse rather than silently
  // double-count (or abort mid-run on the shard-header mismatch).
  const auto reject_duplicates = [](const auto& values, const char* dim) {
    for (std::size_t i = 0; i < values.size(); ++i)
      for (std::size_t j = i + 1; j < values.size(); ++j)
        if (values[i] == values[j])
          throw std::invalid_argument(
              std::string("compile_suite: duplicate ") + dim +
              " in the grid");
  };
  reject_duplicates(spec.models, "model");
  reject_duplicates(spec.acts, "act");
  reject_duplicates(spec.dtypes, "dtype");
  reject_duplicates(spec.techniques, "technique");
  for (std::size_t i = 0; i < spec.faults.size(); ++i)
    for (std::size_t j = i + 1; j < spec.faults.size(); ++j)
      if (same_fault(spec.faults[i], spec.faults[j]))
        throw std::invalid_argument(
            "compile_suite: duplicate fault model in the grid");

  constexpr std::size_t kMax = static_cast<std::size_t>(-1);
  SuitePlan plan;
  plan.spec = spec;
  for (const models::ModelId model : spec.models)
    for (const ops::OpKind act : spec.acts)
      for (const tensor::DType dtype : spec.dtypes)
        for (const FaultModelSpec& fault : spec.faults)
          for (const Technique technique : spec.techniques) {
            SuiteCell c;
            c.model = model;
            c.act = act;
            c.dtype = dtype;
            c.fault = fault;
            c.technique = technique;
            c.trials_per_input =
                models::scaled_trials(model, spec.trials_small) /
                spec.trials_divisor;
            // A wrapped count would plan a small grid in silence.
            if (c.trials_per_input > kMax / spec.inputs)
              throw std::invalid_argument(
                  "compile_suite: trials x inputs overflows a cell's "
                  "trial count");
            c.total_trials = c.trials_per_input * spec.inputs;
            if (c.total_trials > kMax - plan.total_trials)
              throw std::invalid_argument(
                  "compile_suite: the suite's total trial count overflows");
            c.global_offset = plan.total_trials;
            c.shard_offset = c.global_offset;
            c.id = cell_id_of(c);
            c.label = cell_label_of(c);
            plan.total_trials += c.total_trials;
            plan.cells.push_back(std::move(c));
          }
  // Phase-align each paired cell with its unprotected sibling (see
  // SuiteCell::shard_offset): the coverage join needs both cells to run
  // the same shard-local trial subset.
  for (SuiteCell& c : plan.cells) {
    if (c.technique != Technique::kRangerPaired) continue;
    for (const SuiteCell& sibling : plan.cells)
      if (sibling.technique == Technique::kUnprotected &&
          same_dims(sibling, c)) {
        c.shard_offset = sibling.global_offset;
        break;
      }
  }
  return plan;
}

Suite::Suite(SuiteSpec spec, models::WorkloadCache* shared_workloads)
    : plan_(compile_suite(spec)) {
  // A shared cache built for a different seed or input count would hand
  // out workloads whose goldens disagree with what the checkpoint
  // fingerprints claim (they record spec.seed, nothing
  // workload-derived) — refuse up front rather than mix campaigns.
  if (shared_workloads &&
      (shared_workloads->options().seed != plan_.spec.seed ||
       shared_workloads->options().eval_inputs != plan_.spec.inputs))
    throw std::invalid_argument(
        "Suite: shared WorkloadCache options (seed/eval_inputs) disagree "
        "with the SuiteSpec");
  // One arena per worker a cell's runner can use: the runner's width is
  // worker_count(min(pending, check_every), threads).
  const unsigned workers = util::worker_count(
      std::max<std::size_t>(1, plan_.spec.check_every), plan_.spec.threads);
  engine_ = std::make_unique<Engine>(shared_workloads, plan_.spec.verify_plan,
                                     workers);
}

Suite::~Suite() = default;

models::WorkloadCache& Suite::workloads() {
  return engine_->workloads(plan_.spec.seed, plan_.spec.inputs);
}

const core::Bounds& Suite::bounds(models::ModelId id, ops::OpKind act) {
  return engine_->bounds(plan_.spec, id, act);
}

const graph::Graph& Suite::protected_graph(models::ModelId id,
                                           ops::OpKind act) {
  return engine_->protected_graph(plan_.spec, id, act);
}

SuiteResult Suite::run() {
  const SuiteSpec& spec = plan_.spec;
  if (!spec.checkpoint_dir.empty())
    std::filesystem::create_directories(spec.checkpoint_dir);

  SuiteResult out;
  out.plan = plan_;
  out.cells.reserve(plan_.cells.size());
  util::metrics::gauge_set("suite.cells_total", plan_.cells.size());
  util::metrics::counter_add("suite.trials_planned", plan_.total_trials);
  for (const SuiteCell& cell : plan_.cells) {
    util::trace::Span cell_span("suite.cell");
    cell_span.arg("trials", cell.total_trials);
    const Engine::CellRun run = engine_->prepare(spec, cell);

    RunnerConfig rc = cell_runner_config(spec, cell);
    if (!spec.checkpoint_dir.empty())
      rc.checkpoint_path =
          (std::filesystem::path(spec.checkpoint_dir) /
           cell_checkpoint_name(spec.name, cell, spec.shard_index,
                                spec.shard_count))
              .string();

    const CampaignRunner runner(rc);
    out.cells.push_back(
        {cell, runner.run(run.ctx, *run.inputs,
                          models::default_judges(cell.model))});
    util::metrics::counter_add("suite.cells_done");
  }
  return out;
}

namespace {

// Whether `file` is `cell`'s checkpoint under some shard spec: the
// shard field is read back from the name and the name rebuilt from it.
bool is_cell_checkpoint(const std::string& file, const std::string& suite,
                        const SuiteCell& cell) {
  const std::size_t field = file.rfind(".s");
  std::size_t index = 0, count = 0;
  return field != std::string::npos &&
         std::sscanf(file.c_str() + field, ".s%zuof%zu", &index, &count) ==
             2 &&
         file == cell_checkpoint_name(suite, cell, index, count);
}

}  // namespace

SuiteResult Suite::merge(const std::vector<std::string>& dirs) const {
  const SuiteSpec& spec = plan_.spec;
  if (!spec.checkpoint_dir.empty())
    std::filesystem::create_directories(spec.checkpoint_dir);
  SuiteResult out;
  out.plan = plan_;
  out.cells.reserve(plan_.cells.size());
  for (const SuiteCell& cell : plan_.cells) {
    std::vector<std::string> paths;
    for (const std::string& dir : dirs) {
      if (!std::filesystem::is_directory(dir)) continue;
      for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (is_cell_checkpoint(entry.path().filename().string(), spec.name,
                               cell))
          paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty())
      throw std::runtime_error("Suite::merge: no checkpoints for cell " +
                               cell.id);
    CampaignReport report = merge_checkpoints(paths);
    // The header this cell's own run writes, with the files' strata
    // table: every campaign scalar, sampling included, must match.
    CheckpointHeader expected =
        CampaignRunner(cell_runner_config(spec, cell))
            .make_header(spec.inputs,
                         models::default_judges(cell.model).size());
    expected.strata_weights = report.header.strata_weights;
    if (expected.fingerprint() != report.header.fingerprint())
      throw std::runtime_error(
          "Suite::merge: checkpoints for cell " + cell.id +
          " were written by a different suite configuration");
    // The merged header says shard 0/1, so the file is the unsharded
    // run's own checkpoint.  It may also be one of this merge's inputs,
    // hence the temp-file-plus-rename writer.
    if (!spec.checkpoint_dir.empty())
      write_checkpoint((std::filesystem::path(spec.checkpoint_dir) /
                        cell_checkpoint_name(spec.name, cell, 0, 1))
                           .string(),
                       report.header, report.records);
    out.cells.push_back({cell, std::move(report)});
  }
  return out;
}

// ---- Manifest ---------------------------------------------------------------

void write_suite_manifest(const std::string& path, const SuiteResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f)
    throw std::runtime_error("write_suite_manifest: cannot write " + path);
  const SuiteSpec& spec = r.plan.spec;
  std::fprintf(f,
               "{\n"
               "  \"suite\": \"%s\",\n"
               "  \"seed\": %" PRIu64 ",\n"
               "  \"inputs\": %zu,\n"
               "  \"trials_small\": %zu,\n"
               "  \"trials_divisor\": %zu,\n"
               "  \"shard\": \"%zu/%zu\",\n"
               "  \"total_trials\": %zu,\n",
               spec.name.c_str(), spec.seed, spec.inputs, spec.trials_small,
               spec.trials_divisor, spec.shard_index, spec.shard_count,
               r.plan.total_trials);
  // Written only when non-default, so every uniform manifest keeps the
  // bytes it had before sampling was a spec field.
  if (spec.stratified.enabled)
    std::fprintf(f, "  \"sampling\": \"stratified\",\n");
  if (spec.stratified.bit_group_size != StratifiedOptions{}.bit_group_size)
    std::fprintf(f, "  \"bit_group\": %d,\n",
                 spec.stratified.bit_group_size);
  // Host metadata, so artifacts from different machines are comparable
  // (results are host-independent; throughput and thread counts are not).
  std::fprintf(f,
               "  \"host\": {\"hardware_concurrency\": %u, \"backend\": "
               "\"%s\", \"threads\": %u},\n",
               std::thread::hardware_concurrency(),
               std::string(ops::backend_name(ops::default_backend())).c_str(),
               spec.threads);

  std::fprintf(f, "  \"cells\": [");
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const SuiteCell& c = r.cells[i].cell;
    const CampaignReport& rep = r.cells[i].report;
    std::fprintf(f,
                 "%s\n    {\"id\": \"%s\", \"label\": \"%s\", \"model\": "
                 "\"%s\", \"act\": \"%s\", \"dtype\": \"%s\", \"n_bits\": "
                 "%d, \"consecutive\": %d, \"fault_class\": \"%s\", "
                 "\"weight_kind\": \"%s\", \"ecc\": \"%s\", "
                 "\"technique\": \"%s\", "
                 "\"trials_per_input\": %zu, \"planned\": %zu, "
                 "\"executed\": %zu, \"judges\": [",
                 i ? "," : "", c.id.c_str(), c.label.c_str(),
                 models::model_token(c.model).c_str(),
                 std::string(act_token(c.act)).c_str(),
                 std::string(dtype_token(c.dtype)).c_str(),
                 c.fault.n_bits, c.fault.consecutive ? 1 : 0,
                 std::string(fault_class_token(c.fault.cls)).c_str(),
                 std::string(weight_fault_kind_token(c.fault.wkind)).c_str(),
                 ecc_token(c.fault.ecc).c_str(),
                 std::string(technique_token(c.technique)).c_str(),
                 c.trials_per_input, c.total_trials, rep.executed());
    for (std::size_t j = 0; j < rep.aggregate.size(); ++j) {
      const CampaignResult& a = rep.aggregate[j];
      const util::Interval w = a.wilson95();
      std::fprintf(f,
                   "%s{\"trials\": %zu, \"sdcs\": %zu, \"rate_pct\": "
                   "%.17g, \"wilson_pct\": %.17g, \"wilson_half_pct\": "
                   "%.17g}",
                   j ? ", " : "", a.trials, a.sdcs, a.sdc_rate_pct(),
                   100.0 * w.center, 100.0 * w.half_width);
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n  ],\n");

  std::fprintf(f, "  \"coverage\": [");
  bool first = true;
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const auto cov = paired_coverage(r, i);
    if (!cov) continue;
    std::fprintf(f,
                 "%s\n    {\"cell\": \"%s\", \"sdcs\": %zu, \"covered\": "
                 "%zu, \"coverage_pct\": %.17g}",
                 first ? "" : ",", r.cells[i].cell.id.c_str(), cov->sdcs,
                 cov->covered, cov->pct());
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  const bool wrote = !std::ferror(f);
  if (std::fclose(f) != 0 || !wrote)
    throw std::runtime_error("write_suite_manifest: cannot write " + path);
}

// ---- Report layer -----------------------------------------------------------

std::string pct_pm(const CampaignResult& r) {
  const util::Interval w = r.wilson95();
  return util::Table::fmt(100.0 * w.center, 2) + " ±" +
         util::Table::fmt(100.0 * w.half_width, 2);
}

std::optional<PairedCoverage> paired_coverage(
    const SuiteResult& r, std::size_t paired_cell_index) {
  if (paired_cell_index >= r.cells.size()) return std::nullopt;
  const SuiteCellResult& paired = r.cells[paired_cell_index];
  if (paired.cell.technique != Technique::kRangerPaired)
    return std::nullopt;
  const SuiteCellResult* plain = nullptr;
  for (const SuiteCellResult& c : r.cells)
    if (c.cell.technique == Technique::kUnprotected &&
        same_dims(c.cell, paired.cell)) {
      plain = &c;
      break;
    }
  if (!plain) return std::nullopt;

  // Both cells draw the identical fault stream (same planner config on
  // the same planning graph), so records join one-to-one on the trial
  // index; partial runs join on the intersection.
  PairedCoverage cov;
  std::size_t a = 0, b = 0;
  const auto& ru = plain->report.records;
  const auto& rp = paired.report.records;
  while (a < ru.size() && b < rp.size()) {
    if (ru[a].trial < rp[b].trial) ++a;
    else if (ru[a].trial > rp[b].trial) ++b;
    else {
      if (ru[a].sdc_mask != 0) {
        ++cov.sdcs;
        if (rp[b].sdc_mask == 0) ++cov.covered;
      }
      ++a;
      ++b;
    }
  }
  return cov;
}

namespace {

// Models in spec order that have both techniques for (dtype, fault) and
// satisfy `steering` — the row sources of every figure table.
struct CellPair {
  models::ModelId model{};
  const SuiteCellResult* plain = nullptr;
  const SuiteCellResult* ranger = nullptr;
};

std::vector<CellPair> collect_pairs(const SuiteResult& r,
                                    tensor::DType dtype,
                                    const FaultModelSpec& fault,
                                    bool steering) {
  std::vector<CellPair> out;
  for (const models::ModelId id : r.plan.spec.models) {
    if (models::is_steering(id) != steering) continue;
    const SuiteCellResult* plain =
        find_cell(r, id, ops::OpKind::kInput, dtype, fault,
                  Technique::kUnprotected);
    const SuiteCellResult* ranger = find_cell(
        r, id, ops::OpKind::kInput, dtype, fault, Technique::kRanger);
    if (plain && ranger) out.push_back({id, plain, ranger});
  }
  return out;
}

}  // namespace

void print_fig6(const SuiteResult& r) {
  const auto pairs =
      collect_pairs(r, tensor::DType::kFixed32, single_bit_fault(), false);
  if (pairs.empty()) {
    std::printf("fig6: grid has no classifier fixed32 single-bit "
                "{unprotected, ranger} cells\n");
    return;
  }
  util::Table table({"model", "SDC orig (%)", "SDC Ranger (%)",
                     "reduction"});
  double sum_orig = 0.0, sum_ranger = 0.0;
  std::size_t rows = 0;
  for (const CellPair& p : pairs) {
    const auto labels = models::judge_labels(p.model);
    for (std::size_t j = 0; j < labels.size(); ++j) {
      const CampaignResult& o = p.plain->report.aggregate[j];
      const CampaignResult& g = p.ranger->report.aggregate[j];
      sum_orig += o.sdc_rate_pct();
      sum_ranger += g.sdc_rate_pct();
      ++rows;
      table.add_row({labels[j], pct_pm(o), pct_pm(g),
                     reduction_str(o.sdc_rate_pct(), g.sdc_rate_pct())});
    }
  }
  table.add_row({"Average",
                 util::Table::fmt(sum_orig / static_cast<double>(rows), 2),
                 util::Table::fmt(sum_ranger / static_cast<double>(rows), 2),
                 reduction_str(sum_orig, sum_ranger)});
  table.print();
}

void print_fig7(const SuiteResult& r) {
  const auto pairs =
      collect_pairs(r, tensor::DType::kFixed32, single_bit_fault(), true);
  if (pairs.empty()) {
    std::printf("fig7: grid has no steering fixed32 single-bit "
                "{unprotected, ranger} cells\n");
    return;
  }
  util::Table table({"model-threshold", "SDC orig (%)", "SDC Ranger (%)"});
  for (const CellPair& p : pairs) {
    const auto labels = models::judge_labels(p.model);
    double so = 0.0, sr = 0.0;
    for (std::size_t j = 0; j < labels.size(); ++j) {
      const CampaignResult& o = p.plain->report.aggregate[j];
      const CampaignResult& g = p.ranger->report.aggregate[j];
      so += o.sdc_rate_pct();
      sr += g.sdc_rate_pct();
      table.add_row({labels[j], pct_pm(o), pct_pm(g)});
    }
    const double n = static_cast<double>(labels.size());
    table.add_row({models::model_name(p.model) + " (Avg.)",
                   util::Table::fmt(so / n, 2),
                   util::Table::fmt(sr / n, 2)});
  }
  table.print();
}

namespace {

// Shared shape of the reduced-precision figures: fig9 is the paper's
// fixed16 table; the int8 variant asks the same question one step lower —
// does Ranger still contain single-bit faults once activations live in a
// calibrated 8-bit code?
void print_reduced_precision(const SuiteResult& r, tensor::DType dtype,
                             const char* missing_note) {
  util::Table table({"model (avg over metrics)", "SDC orig (%)",
                     "SDC Ranger (%)"});
  double sum_orig = 0.0, sum_ranger = 0.0;
  std::size_t rows = 0;
  for (const models::ModelId id : r.plan.spec.models) {
    const SuiteCellResult* plain =
        find_cell(r, id, ops::OpKind::kInput, dtype, single_bit_fault(),
                  Technique::kUnprotected);
    const SuiteCellResult* ranger =
        find_cell(r, id, ops::OpKind::kInput, dtype, single_bit_fault(),
                  Technique::kRanger);
    if (!plain || !ranger) continue;
    double so = 0.0, sr = 0.0;
    const std::size_t judges = plain->report.aggregate.size();
    for (std::size_t j = 0; j < judges; ++j) {
      so += plain->report.aggregate[j].sdc_rate_pct();
      sr += ranger->report.aggregate[j].sdc_rate_pct();
    }
    so /= static_cast<double>(judges);
    sr /= static_cast<double>(judges);
    sum_orig += so;
    sum_ranger += sr;
    ++rows;
    table.add_row({models::model_name(id), util::Table::fmt(so, 2),
                   util::Table::fmt(sr, 2)});
  }
  if (rows == 0) {
    std::printf("%s\n", missing_note);
    return;
  }
  const double n = static_cast<double>(rows);
  table.add_row({"Average", util::Table::fmt(sum_orig / n, 2),
                 util::Table::fmt(sum_ranger / n, 2)});
  table.print();
}

}  // namespace

void print_fig9(const SuiteResult& r) {
  print_reduced_precision(r, tensor::DType::kFixed16,
                          "fig9: grid has no fixed16 single-bit "
                          "{unprotected, ranger} cells");
}

void print_fig9_int8(const SuiteResult& r) {
  print_reduced_precision(r, tensor::DType::kInt8,
                          "int8: grid has no int8 single-bit "
                          "{unprotected, ranger} cells");
}

namespace {

// Shared shape of the two multi-bit figures (11: classifiers per judge,
// 12: steering averaged over thresholds).
void print_multibit(const SuiteResult& r, bool steering, bool per_judge,
                    const char* missing_note) {
  util::Table table({"model", "bits", "SDC orig (%)", "SDC Ranger (%)"});
  double sum_orig = 0.0, sum_ranger = 0.0;
  std::size_t rows = 0;
  for (const models::ModelId id : r.plan.spec.models) {
    if (models::is_steering(id) != steering) continue;
    for (int bits = 2; bits <= 5; ++bits) {
      const SuiteCellResult* plain =
          find_cell(r, id, ops::OpKind::kInput, tensor::DType::kFixed32,
                    activation_fault(bits), Technique::kUnprotected);
      const SuiteCellResult* ranger =
          find_cell(r, id, ops::OpKind::kInput, tensor::DType::kFixed32,
                    activation_fault(bits), Technique::kRanger);
      if (!plain || !ranger) continue;
      if (per_judge) {
        const auto labels = models::judge_labels(id);
        for (std::size_t j = 0; j < labels.size(); ++j) {
          const CampaignResult& o = plain->report.aggregate[j];
          const CampaignResult& g = ranger->report.aggregate[j];
          sum_orig += o.sdc_rate_pct();
          sum_ranger += g.sdc_rate_pct();
          ++rows;
          table.add_row({labels[j], std::to_string(bits), pct_pm(o),
                         pct_pm(g)});
        }
      } else {
        double so = 0.0, sr = 0.0;
        const std::size_t judges = plain->report.aggregate.size();
        for (std::size_t j = 0; j < judges; ++j) {
          so += plain->report.aggregate[j].sdc_rate_pct();
          sr += ranger->report.aggregate[j].sdc_rate_pct();
        }
        so /= static_cast<double>(judges);
        sr /= static_cast<double>(judges);
        sum_orig += so;
        sum_ranger += sr;
        ++rows;
        table.add_row({models::model_name(id), std::to_string(bits),
                       util::Table::fmt(so, 2), util::Table::fmt(sr, 2)});
      }
    }
  }
  if (rows == 0) {
    std::printf("%s\n", missing_note);
    return;
  }
  const double n = static_cast<double>(rows);
  table.add_row({"Average", "2-5", util::Table::fmt(sum_orig / n, 2),
                 util::Table::fmt(sum_ranger / n, 2)});
  table.print();
}

}  // namespace

void print_fig11(const SuiteResult& r) {
  print_multibit(r, /*steering=*/false, /*per_judge=*/true,
                 "fig11: grid has no classifier multi-bit (2-5) "
                 "{unprotected, ranger} cells");
}

void print_fig12(const SuiteResult& r) {
  print_multibit(r, /*steering=*/true, /*per_judge=*/false,
                 "fig12: grid has no steering multi-bit (2-5) "
                 "{unprotected, ranger} cells");
}

void print_table6_coverage(const SuiteResult& r, Suite* suite) {
  util::Table table({"model", "Ranger SDC coverage", "overhead"});
  double cov_sum = 0.0, ovh_sum = 0.0;
  std::size_t rows = 0;
  bool have_overhead = suite != nullptr;
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const auto cov = paired_coverage(r, i);
    if (!cov) continue;
    const SuiteCell& c = r.cells[i].cell;
    std::string overhead = "-";
    if (suite) {
      const models::Workload& w = suite->workloads().get(c.model, c.act);
      const double pct = core::flops_overhead_pct(
          w.graph, suite->protected_graph(c.model, c.act));
      ovh_sum += pct;
      overhead = util::Table::pct(pct, 2);
    }
    cov_sum += cov->pct();
    ++rows;
    table.add_row({r.cells[i].cell.label, util::Table::pct(cov->pct(), 2),
                   overhead});
  }
  if (rows == 0) {
    std::printf("table6: grid has no (unprotected, ranger-paired) cell "
                "pairs to join coverage from\n");
    return;
  }
  const double n = static_cast<double>(rows);
  table.add_row({"Average", util::Table::pct(cov_sum / n, 2),
                 have_overhead ? util::Table::pct(ovh_sum / n, 2) : "-"});
  table.print();
}

namespace {

void print_cells(const SuiteResult& r) {
  util::Table table({"cell", "planned", "executed", "SDCs per metric"});
  for (const SuiteCellResult& c : r.cells) {
    std::string sdcs;
    for (const CampaignResult& a : c.report.aggregate) {
      if (!sdcs.empty()) sdcs += ",";
      sdcs += std::to_string(a.sdcs);
    }
    table.add_row({c.cell.id, std::to_string(c.cell.total_trials),
                   std::to_string(c.report.executed()), sdcs});
  }
  table.print();
}

void print_strata(const SuiteResult& r) {
  for (const SuiteCellResult& c : r.cells) {
    std::printf("%s  %s sampling\n", c.cell.id.c_str(),
                r.plan.spec.stratified.enabled ? "stratified" : "uniform");
    print_report(c.report, models::judge_labels(c.cell.model));
  }
}

}  // namespace

void print_suite_report(const SuiteResult& r, const std::string& mode,
                        Suite* suite) {
  const bool all = mode == "all";
  if (all || mode == "cells") print_cells(r);
  if (mode == "strata") print_strata(r);
  const auto section = [&](const char* name, auto&& fn) {
    if (!all && mode != name) return;
    std::printf("\n-- %s --\n", name);
    fn();
  };
  section("fig6", [&] { print_fig6(r); });
  section("fig7", [&] { print_fig7(r); });
  section("fig9", [&] { print_fig9(r); });
  section("int8", [&] { print_fig9_int8(r); });
  section("fig11", [&] { print_fig11(r); });
  section("fig12", [&] { print_fig12(r); });
  section("table6", [&] { print_table6_coverage(r, suite); });
}

}  // namespace rangerpp::fi
