#include "fi/runner.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "fi/record_codec.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace rangerpp::fi {

CampaignRunner::CampaignRunner(RunnerConfig config)
    : config_(std::move(config)) {
  if (config_.shard_count == 0)
    throw std::invalid_argument("CampaignRunner: shard_count == 0");
  if (config_.shard_index >= config_.shard_count)
    throw std::invalid_argument(
        "CampaignRunner: shard_index out of range (want --shard i/N with "
        "i < N)");
  if (config_.check_every == 0)
    throw std::invalid_argument("CampaignRunner: check_every == 0");
  if (config_.target_half_width_pct < 0.0)
    throw std::invalid_argument(
        "CampaignRunner: negative target_half_width_pct");
}

CheckpointHeader CampaignRunner::make_header(std::size_t n_inputs,
                                             std::size_t judge_count) const {
  CheckpointHeader h;
  h.label = config_.label;
  h.seed = config_.campaign.seed;
  h.dtype = std::string(tensor::dtype_name(config_.campaign.dtype));
  h.n_bits = config_.campaign.n_bits;
  h.consecutive_bits = config_.campaign.consecutive_bits;
  h.trials_per_input = config_.campaign.trials_per_input;
  h.inputs = n_inputs;
  h.judges = judge_count;
  h.fault_class =
      std::string(fault_class_token(config_.campaign.fault_class));
  h.weight_kind = std::string(
      weight_fault_kind_token(config_.campaign.weight_fault.kind));
  h.ecc = ecc_token(config_.campaign.ecc);
  h.sampling = config_.stratified.enabled ? "stratified" : "uniform";
  h.bit_group_size = config_.stratified.bit_group_size;
  h.shard_index = config_.shard_index;
  h.shard_count = config_.shard_count;
  return h;
}

CampaignReport CampaignRunner::run(const graph::Graph& g,
                                   const std::vector<Feeds>& inputs,
                                   const std::vector<JudgePtr>& judges) const {
  RunContext ctx;
  ctx.plan_graph = &g;
  return run(ctx, inputs, judges);
}

CampaignReport CampaignRunner::run(const RunContext& ctx,
                                   const std::vector<Feeds>& inputs,
                                   const std::vector<JudgePtr>& judges) const {
  if (!ctx.plan_graph)
    throw std::invalid_argument("CampaignRunner: RunContext without a "
                                "plan_graph");
  if (inputs.empty())
    throw std::invalid_argument("CampaignRunner: no inputs");
  if (judges.empty() || judges.size() > 32)
    throw std::invalid_argument("CampaignRunner: need 1..32 judges");
  if (ctx.executor &&
      ctx.executor->config().dtype != config_.campaign.dtype)
    throw std::invalid_argument(
        "CampaignRunner: shared executor dtype differs from the campaign's");
  if (ctx.golden_executor && ctx.golden_executor->inputs() != inputs.size())
    throw std::invalid_argument(
        "CampaignRunner: golden_executor must hold one golden per input");
  if (ctx.worker_base != 0 &&
      (!ctx.executor || ctx.worker_base >= ctx.executor->workers()))
    throw std::invalid_argument(
        "CampaignRunner: worker_base requires a shared executor with "
        "arena slots above the base");
  const graph::Graph& exec_graph =
      ctx.exec_graph ? *ctx.exec_graph : *ctx.plan_graph;

  const TrialPlanner planner(*ctx.plan_graph, config_.campaign,
                             inputs.size(), config_.stratified);
  const std::size_t total = planner.total_trials();

  std::map<std::string, double> weights;
  for (std::size_t s = 0; s < planner.strata_count(); ++s)
    weights[planner.stratum_key(s)] = planner.stratum_weight(s);

  CheckpointHeader header = make_header(inputs.size(), judges.size());
  header.strata_weights = format_strata_weights(weights);

  // Resume: load existing records and subtract them from the work list.
  std::vector<TrialRecord> records;
  std::unordered_set<std::uint64_t> done;
  const std::string& path = config_.checkpoint_path;
  bool rewrite = true;  // a fresh checkpoint starts with the header
  if (!path.empty() && std::ifstream(path).good()) {
    Checkpoint cp = load_checkpoint(path);
    if (cp.header.fingerprint() != header.fingerprint() ||
        cp.header.shard_index != header.shard_index ||
        cp.header.shard_count != header.shard_count)
      throw std::runtime_error(
          "CampaignRunner: checkpoint " + path +
          " was written by a different campaign/shard\n  expected " +
          header.fingerprint() + " shard " +
          std::to_string(header.shard_index) + "/" +
          std::to_string(header.shard_count) + "\n  found    " +
          cp.header.fingerprint() + " shard " +
          std::to_string(cp.header.shard_index) + "/" +
          std::to_string(cp.header.shard_count));
    for (TrialRecord& r : cp.records) {
      if (r.trial >= total ||
          r.trial % config_.shard_count != config_.shard_index)
        throw std::runtime_error("CampaignRunner: checkpoint " + path +
                                 " contains trial " +
                                 std::to_string(r.trial) +
                                 " outside this shard");
      if (done.insert(r.trial).second) records.push_back(std::move(r));
    }
    const auto header_bytes = [](const CheckpointHeader& h) {
      std::string bytes;
      encode_stream_header(bytes, h);
      return bytes;
    };
    rewrite = cp.torn_tail || records.size() != cp.records.size() ||
              header_bytes(cp.header) != header_bytes(header);
  }

  std::vector<std::size_t> pending;
  for (std::size_t t = config_.shard_index; t < total;
       t += config_.shard_count)
    if (!done.count(t)) pending.push_back(t);
  const std::size_t shard_planned =
      total > config_.shard_index
          ? (total - config_.shard_index + config_.shard_count - 1) /
                config_.shard_count
          : 0;
  if (config_.max_new_trials != 0 &&
      pending.size() > config_.max_new_trials)
    pending.resize(config_.max_new_trials);
  util::metrics::counter_add("campaign.trials_planned", pending.size());
  if (!done.empty())
    util::metrics::counter_add("campaign.trials_resumed", done.size());

  // Each batch is appended to the checkpoint.  A fresh run first writes
  // the header; a resume appends to the file as loaded, unless the load
  // saw a torn tail (appending after that fragment would corrupt the
  // file), dropped duplicate records, or read a header whose bytes
  // differ from this run's (another label, say).  Then the loaded
  // records are rewritten whole before any trial runs; the temp + rename
  // inside write_checkpoint keeps the old file intact if this process
  // dies mid-rewrite.  A failed write throws, so a torn tail is the only
  // tear a run can leave.
  if (!path.empty() && rewrite) write_checkpoint(path, header, records);

  // Aggregate Wilson half-width of judge 0, in percent, over everything
  // recorded so far — the early-stop criterion.
  const auto half_width_pct = [&records] {
    std::size_t sdcs = 0;
    for (const TrialRecord& r : records) sdcs += r.sdc_mask & 1u;
    return 100.0 * util::wilson95(sdcs, records.size()).half_width;
  };

  if (!pending.empty()) {
    // With a shared executor the caller sized the arena pool; cap the
    // parallel width to it so worker indices never outrun the arenas.
    unsigned workers = util::worker_count(
        std::min(pending.size(), config_.check_every),
        config_.campaign.threads);
    if (ctx.executor)
      workers =
          std::min(workers, ctx.executor->workers() - ctx.worker_base);
    std::optional<TrialExecutor> local_executor;
    if (!ctx.executor)
      local_executor.emplace(exec_graph, config_.campaign, inputs, workers);
    const TrialExecutor& executor =
        ctx.executor ? *ctx.executor : *local_executor;
    const TrialExecutor& golden_executor =
        ctx.golden_executor ? *ctx.golden_executor : executor;
    for (std::size_t offset = 0; offset < pending.size();
         offset += config_.check_every) {
      // Early stop only once at least one full batch of evidence exists;
      // checked at deterministic (batch) boundaries so a stopped run is
      // still a prefix of the shard's trial sequence.
      if (config_.target_half_width_pct > 0.0 &&
          records.size() >= config_.check_every &&
          half_width_pct() <= config_.target_half_width_pct)
        break;
      const std::size_t batch_n =
          std::min(config_.check_every, pending.size() - offset);
      util::trace::Span batch_span("campaign.batch");
      batch_span.arg("trials", batch_n);
      util::Timer batch_timer;
      std::vector<TrialRecord> batch(batch_n);
      // Consecutive pending trials of the same input ride one batched
      // plan run (pending is ascending, so same-input runs are already
      // contiguous); grouping never changes the records — batched rows
      // are bit-identical to per-trial execution.  Weight trials run one
      // per group: a batched plan's rows share its Consts, and a shared
      // executor may hold a batch plan whatever the campaign's class.
      const std::size_t group_cap =
          config_.campaign.fault_class == FaultClass::kWeight
              ? 1
              : std::max<std::size_t>(1, executor.batch());
      const auto group_key = [&](std::size_t t) {
        return t / config_.campaign.trials_per_input;
      };
      struct Group {
        std::size_t offset, count;
      };
      std::vector<Group> groups;
      groups.reserve(batch_n / group_cap + 1);
      for (std::size_t i = 0; i < batch_n;) {
        const std::size_t key = group_key(pending[offset + i]);
        std::size_t count = 1;
        while (count < group_cap && i + count < batch_n &&
               group_key(pending[offset + i + count]) == key)
          ++count;
        groups.push_back({i, count});
        i += count;
      }
      const auto record_trial = [&](std::size_t i, const TrialSpec& spec,
                                    const tensor::Tensor& out) {
        const tensor::Tensor& golden =
            golden_executor.golden_output(spec.input);
        std::uint32_t mask = 0;
        for (std::size_t j = 0; j < judges.size(); ++j)
          if (judges[j]->is_sdc(golden, out)) mask |= 1u << j;
        TrialRecord& r = batch[i];
        r.trial = spec.trial;
        r.input = static_cast<std::uint32_t>(spec.input);
        r.faults = spec.faults;
        r.stratum = planner.stratum_key(spec.stratum);
        r.sdc_mask = mask;
      };
      util::parallel_for_workers(
          groups.size(),
          [&](unsigned local_worker, std::size_t gi) {
            // Arena slot in the (possibly shared) executor; local
            // workers start at the caller's base (RunContext).
            const unsigned worker = ctx.worker_base + local_worker;
            const Group group = groups[gi];
            // `applied` is the post-ECC fault set (equal to `faults` for
            // activation trials); the records keep the sampled one.
            if (group.count == 1 || executor.batch() == 1) {
              for (std::size_t i = group.offset;
                   i < group.offset + group.count; ++i) {
                const TrialSpec spec = planner.plan(pending[offset + i]);
                record_trial(i, spec,
                             executor.run_trial(worker, spec.input,
                                                spec.applied));
              }
              return;
            }
            std::vector<TrialSpec> specs;
            std::vector<FaultSet> faults;
            specs.reserve(group.count);
            faults.reserve(group.count);
            for (std::size_t i = 0; i < group.count; ++i) {
              specs.push_back(planner.plan(pending[offset + group.offset + i]));
              // Groups were formed by the t / trials_per_input rule; a
              // planner that assigns inputs differently must fail loudly,
              // not judge against the wrong golden.
              if (specs.back().input != specs.front().input)
                throw std::logic_error(
                    "CampaignRunner: trial group spans inputs — "
                    "planner/grouping mismatch");
              faults.push_back(specs.back().applied);
            }
            const std::vector<tensor::Tensor> outs = executor.run_trial_batch(
                worker, specs[0].input, faults);
            for (std::size_t i = 0; i < group.count; ++i)
              record_trial(group.offset + i, specs[i], outs[i]);
          },
          workers);
      util::metrics::counter_add("campaign.batches");
      util::metrics::counter_add("campaign.trials", batch_n);
      util::metrics::observe_ms("campaign.batch_ms",
                                batch_timer.elapsed_ms());
      util::trace::Span write_span("checkpoint.write");
      write_span.arg("records", batch_n);
      if (!path.empty()) append_records(path, batch);
      records.insert(records.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
    }
  }

  CampaignReport report =
      build_report(std::move(records), judges.size(), shard_planned, weights);
  report.header = std::move(header);
  return report;
}

}  // namespace rangerpp::fi
