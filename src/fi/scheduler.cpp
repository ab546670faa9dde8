#include "fi/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "fi/engine.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/threadpool.hpp"
#include "util/trace.hpp"

namespace rangerpp::fi {

namespace {

// kill_after_ sentinel: no kill scheduled for this worker.
constexpr std::size_t kNoKill = static_cast<std::size_t>(-1);

// A resident daemon must not grow without bound: each submit() reaps the
// oldest *settled* requests beyond this many — their ids then read as
// unknown.  A settled request holds only its status, so the cap bounds
// the duplicate-name scan and the status walks, not memory for records.
constexpr std::size_t kSettledRetention = 64;

}  // namespace

std::string_view request_state_token(RequestState s) {
  switch (s) {
    case RequestState::kRunning: return "running";
    case RequestState::kDone: return "done";
    case RequestState::kCancelled: return "cancelled";
    case RequestState::kFailed: return "failed";
  }
  return "?";
}

// ---- Per-request state ------------------------------------------------------

struct Scheduler::Unit {
  Request* req = nullptr;
  std::size_t cell_index = 0;
  std::size_t partition = 0;
  // Records of this partition already delivered to the sink; records a
  // dying worker executed but never streamed stay below this mark, so
  // the adopting worker streams them straight from the checkpoint.
  std::size_t streamed = 0;
};

struct Scheduler::Request {
  // Immutable after submit() publishes the request.
  std::uint64_t id = 0;
  SuitePlan plan;

  util::Mutex mu;  // also serialises the sink
  util::CondVar cv;
  // Dropped when the request settles (or loses its submit to shutdown):
  // no slice runs after that, and the caller's closure may reference
  // state — a client connection — that its owner is about to close.
  RecordSink sink RANGERPP_GUARDED_BY(mu);
  // Atomic so readers that must not block on a request's sink (submit's
  // duplicate-name check, status over many requests) can read it
  // without `mu`; writers still settle it under `mu` + cv notify.
  std::atomic<RequestState> state{RequestState::kRunning};
  // cancelled is also set on failure: pending units skip at pickup.
  bool cancelled RANGERPP_GUARDED_BY(mu) = false;
  std::string error RANGERPP_GUARDED_BY(mu);
  std::size_t outstanding RANGERPP_GUARDED_BY(mu) = 0;  // unsettled units
  std::size_t streamed RANGERPP_GUARDED_BY(mu) = 0;  // across all cells
  std::vector<std::unique_ptr<Unit>> units RANGERPP_GUARDED_BY(mu);
  util::Timer submitted;  // settle latency (sched.settle_ms histogram)
};

// ---- Scheduler --------------------------------------------------------------

Scheduler::Scheduler(SchedulerConfig config,
                     models::WorkloadCache* shared_workloads)
    : config_(std::move(config)) {
  if (config_.partitions_per_cell == 0) config_.partitions_per_cell = 1;
  workers_ = config_.workers ? config_.workers
                             : util::default_thread_count();
  // One arena per scheduler worker: a runner slice pins itself to its
  // worker's arena via RunContext::worker_base.
  engine_ = std::make_unique<Engine>(shared_workloads, config_.verify_plans,
                                     workers_);
  queues_.resize(workers_);
  kill_after_.reserve(workers_);
  busy_us_.reserve(workers_);
  for (unsigned w = 0; w < workers_; ++w) {
    kill_after_.push_back(
        std::make_unique<std::atomic<std::size_t>>(kNoKill));
    busy_us_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  threads_.reserve(workers_);
  for (unsigned w = 0; w < workers_; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

Scheduler::~Scheduler() { shutdown(); }

std::uint64_t Scheduler::submit(SuiteSpec spec, RecordSink sink) {
  {
    util::MutexLock lk(queue_mu_);
    if (shutdown_)
      throw std::runtime_error("Scheduler: submit after shutdown");
  }
  if (spec.shard_count != 1 || spec.shard_index != 0)
    throw std::invalid_argument(
        "Scheduler: submit unsharded specs (shard 0/1) — the scheduler "
        "owns partitioning");
  // Scheduler concerns, not request concerns: slices/checkpoints belong
  // to the daemon config, and each slice runs single-threaded on its
  // scheduler worker.
  spec.checkpoint_dir.clear();
  spec.max_new_trials = 0;

  auto req = std::make_shared<Request>();
  req->plan = compile_suite(spec);  // throws on a bad spec
  // Nothing shares the request yet, but the guarded fields are guarded:
  // populate them under the (uncontended) lock rather than poke a hole
  // in the analysis for the pre-publication window.
  std::vector<Unit*> unit_ptrs;
  {
    util::MutexLock lk(req->mu);
    req->sink = std::move(sink);
    for (std::size_t ci = 0; ci < req->plan.cells.size(); ++ci) {
      for (std::size_t p = 0; p < config_.partitions_per_cell; ++p) {
        auto u = std::make_unique<Unit>();
        u->req = req.get();
        u->cell_index = ci;
        u->partition = p;
        req->units.push_back(std::move(u));
      }
    }
    req->outstanding = req->units.size();
    unit_ptrs.reserve(req->units.size());
    for (auto& u : req->units) unit_ptrs.push_back(u.get());
  }

  Request* raw = req.get();
  {
    util::MutexLock lk(requests_mu_);
    for (auto& [id, other] : requests_)
      if (other->state.load(std::memory_order_acquire) ==
              RequestState::kRunning &&
          other->plan.spec.name == req->plan.spec.name)
        throw std::invalid_argument(
            "Scheduler: a request named '" + req->plan.spec.name +
            "' is already running (names key checkpoint files)");
    req->id = next_id_++;
    // `req` keeps the request alive below: shutdown() may settle it
    // while a cell builds, and a concurrent submit may then reap it.
    requests_[raw->id] = req;
    reap_settled();
  }

  if (!config_.checkpoint_dir.empty())
    std::filesystem::create_directories(config_.checkpoint_dir);

  // Each cell's engine state (workload, bounds, protected graph,
  // executors) is built here, on the submitting thread, before the
  // cell's units are queued.  A cold build therefore never holds a
  // worker: other requests keep running while it builds instead of
  // queueing behind workers blocked on its once-flags, and this
  // request's first cell runs while its later cells build.  As on a
  // worker, kernel-level parallelism runs inline.  Nothing here takes
  // the request's lock, which a worker holds across sink calls.  A
  // build that throws is left to the cell's first slice: it rebuilds,
  // throws again and fails the request with the diagnostic.
  bool lost_shutdown_race = false;
  bool built = true;  // false once a build threw: skip the later cells
  std::size_t w = 0;
  for (std::size_t ci = 0; ci < raw->plan.cells.size(); ++ci) {
    if (built) {
      const util::ScopedPoolWorker inline_kernels;
      try {
        engine_->prepare(raw->plan.spec, raw->plan.cells[ci]);
      } catch (const std::exception&) {
        built = false;
      }
    }
    {
      util::MutexLock lk(queue_mu_);
      // shutdown() may have won the race since the entry check: the
      // workers are gone (or going), so enqueued units would never
      // settle and a wait() on this id would hang forever.  Refuse
      // instead.
      if (shutdown_) {
        lost_shutdown_race = true;
        break;
      }
      // Round-robin the units across worker deques; stealing
      // rebalances whatever this initial placement gets wrong.
      for (std::size_t p = 0; p < config_.partitions_per_cell; ++p)
        queues_[w++ % workers_].push_back(
            unit_ptrs[ci * config_.partitions_per_cell + p]);
    }
    queue_cv_.notify_all();
  }
  if (lost_shutdown_race) {
    // Settle the already-registered request ourselves: shutdown()'s own
    // kFailed sweep may have run before the insert above, and a running
    // request is never reaped.  Earlier cells may be mid-slice: dropping
    // the sink under `mu` means no call reaches it after this throw.
    {
      util::MutexLock lk(raw->mu);
      raw->sink = nullptr;
      if (raw->state == RequestState::kRunning) {
        raw->state = RequestState::kFailed;
        raw->error = "scheduler shut down before the request was queued";
        raw->cv.notify_all();
      }
    }
    throw std::runtime_error("Scheduler: submit after shutdown");
  }
  return raw->id;
}

std::shared_ptr<Scheduler::Request> Scheduler::find_request(
    std::uint64_t id) const {
  util::MutexLock lk(requests_mu_);
  const auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : it->second;
}

// Oldest-first eviction of settled requests beyond kSettledRetention.
// Holders of the shared_ptr (a concurrent wait or status) keep the
// request alive past the erase; a settled request has no units left in
// any worker deque, so nothing dangles.
void Scheduler::reap_settled() {
  std::size_t settled = 0;
  for (const auto& [id, req] : requests_)
    if (req->state.load(std::memory_order_acquire) != RequestState::kRunning)
      ++settled;
  for (auto it = requests_.begin();
       settled > kSettledRetention && it != requests_.end();) {
    if (it->second->state.load(std::memory_order_acquire) ==
        RequestState::kRunning) {
      ++it;
      continue;
    }
    it = requests_.erase(it);
    --settled;
  }
}

RequestStatus Scheduler::status_of(Request& req) const {
  util::MutexLock lk(req.mu);
  RequestStatus s;
  s.id = req.id;
  s.name = req.plan.spec.name;
  s.state = req.state;
  s.cells = req.plan.cells.size();
  s.planned_trials = req.plan.total_trials;
  s.streamed_trials = req.streamed;
  s.error = req.error;
  return s;
}

std::optional<RequestStatus> Scheduler::status(std::uint64_t id) const {
  const std::shared_ptr<Request> req = find_request(id);
  if (!req) return std::nullopt;
  return status_of(*req);
}

std::vector<RequestStatus> Scheduler::status_all() const {
  std::vector<RequestStatus> out;
  util::MutexLock lk(requests_mu_);
  out.reserve(requests_.size());
  for (auto& [id, req] : requests_) out.push_back(status_of(*req));
  return out;
}

bool Scheduler::cancel(std::uint64_t id) {
  const std::shared_ptr<Request> req = find_request(id);
  if (!req) return false;
  util::MutexLock lk(req->mu);
  if (req->state != RequestState::kRunning || req->cancelled) return false;
  req->cancelled = true;
  return true;
}

RequestStatus Scheduler::wait(std::uint64_t id) {
  const std::shared_ptr<Request> req = find_request(id);
  if (!req) throw std::invalid_argument("Scheduler: unknown request id");
  {
    util::MutexLock lk(req->mu);
    while (req->state == RequestState::kRunning) req->cv.wait(lk);
    if (req->state == RequestState::kFailed)
      throw std::runtime_error("Scheduler: request '" + req->plan.spec.name +
                               "' failed: " + req->error);
  }
  // Settling is one-way and nothing streams after it: the status read
  // below is final.
  return status_of(*req);
}

void Scheduler::kill_worker_after(unsigned worker, std::size_t slices) {
  if (worker >= workers_)
    throw std::invalid_argument("Scheduler: worker index out of range");
  if (slices == kNoKill) --slices;
  kill_after_[worker]->store(slices, std::memory_order_relaxed);
}

void Scheduler::shutdown() {
  {
    util::MutexLock lk(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
  util::MutexLock lk(requests_mu_);
  for (auto& [id, req] : requests_) {
    util::MutexLock lk2(req->mu);
    if (req->state != RequestState::kRunning) continue;
    req->sink = nullptr;
    req->state = RequestState::kFailed;
    if (req->error.empty())
      req->error =
          "scheduler shut down before the request completed (checkpoints "
          "remain resumable)";
    req->cv.notify_all();
  }
}

// ---- Worker loop ------------------------------------------------------------

Scheduler::Unit* Scheduler::next_unit(unsigned w) {
  util::MutexLock lk(queue_mu_);
  for (;;) {
    if (shutdown_) return nullptr;
    if (!queues_[w].empty()) {
      Unit* u = queues_[w].front();
      queues_[w].pop_front();
      return u;
    }
    // Steal from the tail of the first non-empty sibling deque — also
    // how survivors drain a dead worker's queue.
    for (unsigned i = 1; i < workers_; ++i) {
      std::deque<Unit*>& q = queues_[(w + i) % workers_];
      if (q.empty()) continue;
      Unit* u = q.back();
      q.pop_back();
      steals_.fetch_add(1, std::memory_order_relaxed);
      util::metrics::counter_add("sched.steals");
      return u;
    }
    queue_cv_.wait(lk);
  }
}

void Scheduler::enqueue(Unit* u, unsigned hint) {
  {
    util::MutexLock lk(queue_mu_);
    queues_[hint % workers_].push_back(u);
  }
  queue_cv_.notify_all();
}

void Scheduler::worker_loop(unsigned w) {
  // Kernel-level parallel_for calls issued from runner slices run inline
  // on this thread — the scheduler owns the cores.
  util::ScopedPoolWorker pool_mark;
  util::trace::set_thread_name("sched.worker." + std::to_string(w));
  for (;;) {
    Unit* u = next_unit(w);
    if (!u) return;
    Request& req = *u->req;

    bool skip = false;
    {
      util::MutexLock lk(req.mu);
      skip = req.cancelled;
    }
    if (skip) {
      // Dropped at pickup; the unit's checkpoint (if any) stays
      // resumable for a future submission of the same spec.
      settle_unit(u);
      continue;
    }

    std::size_t kill = kill_after_[w]->load(std::memory_order_relaxed);
    if (kill == 0) {  // die before touching the unit
      enqueue(u, w + 1);
      return;
    }
    const bool die = kill != kNoKill && kill == 1;
    if (kill != kNoKill)
      kill_after_[w]->store(kill - 1, std::memory_order_relaxed);

    try {
      util::Timer busy;
      const bool finished = run_unit_slice(w, *u, /*suppress_stream=*/die);
      busy_us_[w]->fetch_add(
          static_cast<std::uint64_t>(busy.elapsed_seconds() * 1e6),
          std::memory_order_relaxed);
      slices_.fetch_add(1, std::memory_order_relaxed);
      util::metrics::counter_add("sched.slices");
      if (die) {
        // The slice's records made it to the checkpoint but not to the
        // stream — exactly a worker killed mid-handoff.  Hand the unit
        // to the survivors; their resume streams past u->streamed.
        enqueue(u, w + 1);
        return;
      }
      if (finished)
        settle_unit(u);
      else
        enqueue(u, w);
    } catch (const std::exception& e) {
      fail_request(req, e.what());
      settle_unit(u);
    }
  }
}

void Scheduler::settle_unit(Unit* u) {
  Request& req = *u->req;
  util::MutexLock lk(req.mu);
  --req.outstanding;
  if (req.outstanding == 0 && req.state == RequestState::kRunning) {
    req.sink = nullptr;  // no slice of this request runs after this one
    req.state = !req.error.empty() ? RequestState::kFailed
                : req.cancelled   ? RequestState::kCancelled
                                  : RequestState::kDone;
    util::metrics::observe_ms("sched.settle_ms", req.submitted.elapsed_ms());
    req.cv.notify_all();
  }
}

void Scheduler::fail_request(Request& req, const std::string& error) {
  util::MutexLock lk(req.mu);
  if (req.error.empty()) req.error = error;
  req.cancelled = true;  // pending units skip at pickup
}

bool Scheduler::run_unit_slice(unsigned w, Unit& u, bool suppress_stream) {
  Request& req = *u.req;
  const SuiteSpec& spec = req.plan.spec;
  const SuiteCell& cell = req.plan.cells[u.cell_index];

  util::trace::Span span("sched.slice");
  span.arg("request", req.id);
  span.arg("cell", u.cell_index);
  span.arg("partition", u.partition);

  // A VerifyReport failure or a bad workload throws out of prepare; the
  // worker loop's catch settles the request kFailed with the diagnostic.
  Engine::CellRun run = engine_->prepare(spec, cell);
  run.ctx.worker_base = w;  // pin this slice to this worker's arena

  RunnerConfig rc = cell_runner_config(spec, cell);
  rc.campaign.threads = 1;  // the scheduler pool IS the parallelism
  rc.shard_index = u.partition;
  rc.shard_count = config_.partitions_per_cell;
  // In-memory units must run whole: a slice boundary without a
  // checkpoint would forget its records (see SchedulerConfig).
  rc.max_new_trials =
      config_.checkpoint_dir.empty() ? 0 : config_.slice_trials;
  if (!config_.checkpoint_dir.empty())
    rc.checkpoint_path =
        (std::filesystem::path(config_.checkpoint_dir) /
         cell_checkpoint_name(spec.name, cell, u.partition,
                              config_.partitions_per_cell))
            .string();

  const CampaignRunner runner(rc);
  CampaignReport report = runner.run(run.ctx, *run.inputs,
                                     models::default_judges(cell.model));

  // Complete when every partition trial ran — or when a slice made no
  // progress (early stop tripped, or a resumed checkpoint already
  // covered everything new): requeueing such a unit would spin forever.
  const std::size_t prev = u.streamed;
  const std::size_t available = report.records.size();
  const bool finished =
      report.executed() >= report.planned || available == prev;
  if (suppress_stream) return finished;

  if (available > prev) {
    // report.records is ascending and every slice appends strictly later
    // trials of this partition, so the already-streamed records are
    // exactly the prefix [0, prev).
    report.records.erase(report.records.begin(),
                         report.records.begin() +
                             static_cast<std::ptrdiff_t>(prev));
    // The partition's header in export form: the header a one-shot
    // unsharded run of the cell writes.
    report.header.shard_index = 0;
    report.header.shard_count = 1;
    util::MutexLock lk(req.mu);
    if (req.sink) req.sink(u.cell_index, report.header, report.records);
    req.streamed += report.records.size();
    // Streamed position, not raw execution: a suppressed (dying) slice's
    // records are counted when the adopting worker re-streams them, so
    // the figure stays monotone and matches the client-visible stream.
    trials_executed_.fetch_add(report.records.size(),
                               std::memory_order_relaxed);
  }
  u.streamed = available;
  return finished;
}

// ---- Live statistics --------------------------------------------------------

std::string Scheduler::stats_json() {
  const auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  const double up_s = uptime_.elapsed_seconds();
  const double up_us = up_s * 1e6;
  const std::uint64_t trials =
      trials_executed_.load(std::memory_order_relaxed);

  std::string out = "{";
  out += "\"workers\": " + std::to_string(workers_);
  out += ", \"uptime_s\": " + num(up_s);
  out += ", \"slices\": " +
         std::to_string(slices_.load(std::memory_order_relaxed));
  out += ", \"steals\": " +
         std::to_string(steals_.load(std::memory_order_relaxed));
  out += ", \"trials_streamed\": " + std::to_string(trials);
  out += ", \"trials_per_sec\": " +
         num(up_s > 0.0 ? static_cast<double>(trials) / up_s : 0.0);
  out += ", \"worker_busy_fraction\": [";
  for (unsigned w = 0; w < workers_; ++w) {
    if (w) out += ", ";
    const double busy =
        static_cast<double>(busy_us_[w]->load(std::memory_order_relaxed));
    out += num(up_us > 0.0 ? std::min(1.0, busy / up_us) : 0.0);
  }
  out += "]";
  {
    util::MutexLock lk(queue_mu_);
    out += ", \"queue_depths\": [";
    for (unsigned w = 0; w < workers_; ++w) {
      if (w) out += ", ";
      out += std::to_string(queues_[w].size());
    }
    out += "]";
  }
  std::size_t running = 0, done = 0, cancelled = 0, failed = 0;
  {
    // requests_mu_ → req->mu is the established order (see shutdown()).
    util::MutexLock lk(requests_mu_);
    for (const auto& [id, req] : requests_) {
      switch (req->state.load(std::memory_order_acquire)) {
        case RequestState::kRunning: ++running; break;
        case RequestState::kDone: ++done; break;
        case RequestState::kCancelled: ++cancelled; break;
        case RequestState::kFailed: ++failed; break;
      }
    }
  }
  out += ", \"requests\": {\"running\": " + std::to_string(running) +
         ", \"done\": " + std::to_string(done) +
         ", \"cancelled\": " + std::to_string(cancelled) +
         ", \"failed\": " + std::to_string(failed) + "}";
  if (util::metrics::enabled()) {
    std::string m = util::metrics::snapshot_json();
    while (!m.empty() && m.back() == '\n') m.pop_back();
    out += ", \"metrics\": " + m;
  } else {
    out += ", \"metrics\": null";
  }
  out += "}\n";
  return out;
}

// ---- Request wire format ----------------------------------------------------

namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("parse_suite_spec: " + what);
}

template <typename T, typename TokenFn>
std::string join_tokens(const std::vector<T>& values, TokenFn token) {
  std::string out;
  for (const T& v : values) {
    if (!out.empty()) out += ',';
    out += std::string(token(v));
  }
  return out;
}

// Splits a comma-separated axis; rejects empty items ("a,,b") so a
// mangled request fails loudly instead of silently shrinking the grid.
std::vector<std::string> split_axis(std::string_view value,
                                    const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = value.find(',', start);
    const std::string_view item =
        value.substr(start, comma == std::string_view::npos
                                ? std::string_view::npos
                                : comma - start);
    if (item.empty()) bad_spec("empty item in '" + line + "'");
    out.emplace_back(item);
    if (comma == std::string_view::npos) return out;
    start = comma + 1;
  }
}

std::uint64_t parse_spec_u64(std::string_view value,
                             const std::string& line) {
  std::uint64_t v = 0;
  if (!util::parse_u64(std::string(value).c_str(), v))
    bad_spec("bad number in '" + line + "'");
  return v;
}

}  // namespace

std::string serialize_suite_spec(const SuiteSpec& spec) {
  std::string out;
  const auto line = [&out](std::string_view key, std::string value) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  };
  line("name", spec.name);
  line("models", join_tokens(spec.models, [](models::ModelId m) {
         return models::model_token(m);
       }));
  line("acts", join_tokens(spec.acts, act_token));
  line("dtypes", join_tokens(spec.dtypes, dtype_token));
  line("faults", join_tokens(spec.faults, fault_spec_token));
  line("techniques", join_tokens(spec.techniques, technique_token));
  line("trials", std::to_string(spec.trials_small));
  line("trials_divisor", std::to_string(spec.trials_divisor));
  line("inputs", std::to_string(spec.inputs));
  line("seed", std::to_string(spec.seed));
  line("check_every", std::to_string(spec.check_every));
  // The checkpoint header's names, written only when non-default so a
  // uniform spec keeps its bytes.
  if (spec.stratified.enabled) line("sampling", "stratified");
  if (spec.stratified.bit_group_size != StratifiedOptions{}.bit_group_size)
    line("bit_group", std::to_string(spec.stratified.bit_group_size));
  if (spec.target_half_width_pct != 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", spec.target_half_width_pct);
    line("target_ci", buf);
  }
  return out;
}

SuiteSpec parse_suite_spec(std::string_view text) {
  SuiteSpec spec;
  spec.models.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view raw = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos
                                          : nl - pos);
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    if (raw.empty()) continue;
    const std::string line(raw);
    const std::size_t eq = raw.find('=');
    if (eq == std::string_view::npos)
      bad_spec("expected key=value, got '" + line + "'");
    const std::string_view key = raw.substr(0, eq);
    const std::string_view value = raw.substr(eq + 1);
    if (key == "name") {
      spec.name = std::string(value);
    } else if (key == "models") {
      spec.models.clear();
      for (const std::string& item : split_axis(value, line)) {
        const auto m = models::model_from_token(item);
        if (!m) bad_spec("unknown model '" + item + "'");
        spec.models.push_back(*m);
      }
    } else if (key == "acts") {
      spec.acts.clear();
      for (const std::string& item : split_axis(value, line)) {
        const auto a = act_from_token(item);
        if (!a) bad_spec("unknown act '" + item + "'");
        spec.acts.push_back(*a);
      }
    } else if (key == "dtypes") {
      spec.dtypes.clear();
      for (const std::string& item : split_axis(value, line)) {
        const auto d = dtype_from_token(item);
        if (!d) bad_spec("unknown dtype '" + item + "'");
        spec.dtypes.push_back(*d);
      }
    } else if (key == "faults") {
      spec.faults.clear();
      for (const std::string& item : split_axis(value, line)) {
        const auto f = fault_spec_from_token(item);
        if (!f) bad_spec("bad fault model '" + item + "'");
        spec.faults.push_back(*f);
      }
    } else if (key == "techniques") {
      spec.techniques.clear();
      for (const std::string& item : split_axis(value, line)) {
        const auto t = technique_from_token(item);
        if (!t) bad_spec("unknown technique '" + item + "'");
        spec.techniques.push_back(*t);
      }
    } else if (key == "trials") {
      spec.trials_small = parse_spec_u64(value, line);
    } else if (key == "trials_divisor") {
      spec.trials_divisor = parse_spec_u64(value, line);
    } else if (key == "inputs") {
      spec.inputs = parse_spec_u64(value, line);
    } else if (key == "seed") {
      spec.seed = parse_spec_u64(value, line);
    } else if (key == "check_every") {
      spec.check_every = parse_spec_u64(value, line);
    } else if (key == "sampling") {
      if (value != "uniform" && value != "stratified")
        bad_spec("sampling wants uniform|stratified, got '" + line + "'");
      spec.stratified.enabled = value == "stratified";
    } else if (key == "bit_group") {
      const std::uint64_t v = parse_spec_u64(value, line);
      if (v < 1 || v > 64)
        bad_spec("bit_group wants 1..64, got '" + line + "'");
      spec.stratified.bit_group_size = static_cast<int>(v);
    } else if (key == "target_ci") {
      double v = 0.0;
      if (!util::parse_f64(std::string(value).c_str(), v) || v < 0.0)
        bad_spec("bad number in '" + line + "'");
      spec.target_half_width_pct = v;
    } else {
      bad_spec("unknown key '" + std::string(key) + "'");
    }
  }
  return spec;
}

}  // namespace rangerpp::fi
