// fi::Scheduler — the resident campaign engine behind scheduler_cli's
// daemon mode.  One process accepts many concurrent campaign/suite
// requests, compiles each through the existing fi::Suite grid
// (compile_suite), and multiplexes every request's cells across one
// worker pool:
//
//  * Work units and stealing — each cell is split into a fixed number
//    of deterministic shard partitions (trial t belongs to partition
//    t % P, the CampaignRunner shard rule), and each (request, cell,
//    partition) unit executes in bounded slices
//    (RunnerConfig::max_new_trials).  Units live in per-worker deques;
//    an idle worker steals from the others' tails.  Stealing and slice
//    interleaving are pure scheduling: every record is a function of
//    (campaign fingerprint, trial index) alone, so the merged stream is
//    byte-identical to a one-shot suite_cli run regardless of worker
//    count, steal order, or where a slice boundary fell.
//  * Shared engine caches — one fi::Engine (engine.hpp, the cache
//    fi::Suite runs on too) shares workloads, derived bounds,
//    Ranger-protected graphs and compiled TrialExecutors across
//    *requests*, keyed by everything that determines them (seed, inputs,
//    model, act, dtype, variant) and built at most once.  Executors are
//    sized with one arena per scheduler worker; a runner slice pins
//    itself to its worker's arena via RunContext::worker_base.
//  * Streaming — each slice's newly available records are handed to the
//    request's RecordSink (scheduler_cli forwards them to the client as
//    binary codec frames) together with the cell's export-form header.
//    The sink and the partition checkpoints are the only places a
//    record lives: the scheduler keeps no copy, and a settled request
//    holds only its status until a later submit() reaps it (the 64
//    most recent settled requests stay queryable).
//  * Crash recovery — units checkpoint through the ordinary
//    CampaignRunner resume path (RPRC files, record_codec.hpp, named as
//    suite shards, so `suite_cli --merge` reads them too), so a killed
//    worker — or a SIGKILLed daemon — loses at most the slice in
//    flight; resubmitting the same spec resumes from the surviving
//    checkpoints with no lost or duplicated trials.  cancel() stops a
//    request at slice boundaries and leaves its checkpoints resumable
//    the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fi/suite.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace rangerpp::fi {

struct SchedulerConfig {
  unsigned workers = 0;  // worker threads; 0 = hardware concurrency

  // Deterministic shard partitions per cell — the work-stealing grain.
  // Fixed independently of the worker count (partitioning must not
  // change the checkpoint layout when the pool is resized between
  // runs); more partitions = finer stealing, more checkpoint files.
  std::size_t partitions_per_cell = 4;

  // Trials a unit executes per scheduling slice before it re-queues
  // (fairness between concurrent requests, and the granularity of loss
  // on a kill).  0 = run each partition to completion in one slice.
  // In-memory mode (no checkpoint_dir) always runs whole partitions: a
  // slice boundary without a checkpoint would forget its records.
  std::size_t slice_trials = 256;

  // Directory for per-unit RPRC checkpoints
  // (<name>.<cell-id>.s<p>of<P>.rcp); empty = in-memory only, no crash
  // recovery.  Requests resume from whatever matching checkpoints the
  // directory already holds — the daemon-restart recovery path.
  std::string checkpoint_dir;

  // Statically verify every compiled cell plan (graph::verify_plan)
  // when its executor is first built — one cheap check per cached
  // executor, so a malformed grid submission is refused with a
  // diagnostic (the request settles kFailed) instead of producing
  // wrong records.  Debug builds verify regardless (the compiler's
  // own debug-default); this knob forces it in release daemons.
  bool verify_plans = false;
};

enum class RequestState { kRunning, kDone, kCancelled, kFailed };
std::string_view request_state_token(RequestState s);

struct RequestStatus {
  std::uint64_t id = 0;
  std::string name;
  RequestState state = RequestState::kRunning;
  std::size_t cells = 0;
  std::size_t planned_trials = 0;
  // Records delivered to the sink so far (includes records recovered
  // from checkpoints — the client-visible stream position).
  std::size_t streamed_trials = 0;
  std::string error;  // non-empty when state == kFailed
};

// Incremental record delivery: called with each slice's newly available
// records for one cell (ascending trial order within a call; calls for
// different partitions of a cell interleave).  Serialised per request —
// implementations need no locking of their own — but must not call back
// into the scheduler.  `header` is the cell's export-form (shard 0/1)
// header, equal across calls.  The request drops its sink when it
// settles, so no call reaches the sink once wait() can return.
using RecordSink = std::function<void(
    std::size_t cell_index, const CheckpointHeader& header,
    const std::vector<TrialRecord>& records)>;

class Scheduler {
 public:
  // `shared_workloads` (optional) seeds the engine's workload caches:
  // requests whose (seed, inputs) match its options reuse it, others
  // get per-(seed, inputs) caches owned by the scheduler.  Must outlive
  // the scheduler.
  explicit Scheduler(SchedulerConfig config,
                     models::WorkloadCache* shared_workloads = nullptr);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Validates and enqueues a request; returns its id.  Throws
  // std::invalid_argument on a bad spec, a spec with shard_count != 1
  // (the scheduler owns partitioning), or a name already running (two
  // live requests with one name would share checkpoint files).  The
  // spec's checkpoint_dir / max_new_trials / threads are scheduler
  // concerns and are overridden.  Cold engine state is built on the
  // calling thread, one cell at a time, each cell's units queued once
  // its state is ready: a cold submit returns after its builds, and its
  // first cell may stream records before it returns.
  std::uint64_t submit(SuiteSpec spec, RecordSink sink = nullptr);

  std::optional<RequestStatus> status(std::uint64_t id) const;
  std::vector<RequestStatus> status_all() const;

  // Requests cancellation; in-flight slices finish (their records
  // stream and checkpoint), queued work is dropped.  Checkpoints stay
  // resumable: resubmitting the same spec later completes the request.
  // False when the id is unknown or the request already settled.
  bool cancel(std::uint64_t id);

  // Blocks until the request settles and returns its settled status —
  // no later lookup is needed, so a reap racing the caller cannot lose
  // it.  The records went to the sink; there is nothing else to return.
  // Throws std::runtime_error when the request failed, with the failure
  // message, and std::invalid_argument when the id is unknown (never
  // submitted, or already reaped).
  RequestStatus wait(std::uint64_t id);

  // Stops the workers after their current slices; queued units are
  // abandoned (checkpoints resumable) and unfinished requests settle as
  // kFailed so waiters wake.  Idempotent; the destructor calls it.
  void shutdown();

  // Test/fault-drill hook: worker `w` executes `slices` more slices,
  // then "dies" — its final slice's records are dropped before
  // streaming (they survive only in the unit's checkpoint, as with a
  // real kill) and the worker exits, leaving its unit for the survivors
  // to adopt and resume.
  void kill_worker_after(unsigned worker, std::size_t slices);

  unsigned worker_count() const { return workers_; }

  // Live engine statistics as one JSON object: worker count and uptime,
  // slices/steals/trials executed (with trials/sec), per-worker busy
  // fractions, queue depths and request-state counts — plus the global
  // util/metrics snapshot when metrics are enabled.  Counters are
  // scheduler-owned atomics, so the figures are live regardless of the
  // metrics flag; the `stats` IPC verb returns exactly this string.
  std::string stats_json();

 private:
  struct Request;  // per-request state (scheduler.cpp)
  struct Unit;     // one (request, cell, partition) work unit

  void worker_loop(unsigned w);
  Unit* next_unit(unsigned w);
  void enqueue(Unit* u, unsigned hint);
  // Executes one slice; returns true when the unit has no work left.
  // `suppress_stream` models a worker dying after the checkpoint write
  // but before delivery.
  bool run_unit_slice(unsigned w, Unit& u, bool suppress_stream);
  void settle_unit(Unit* u);
  void fail_request(Request& req, const std::string& error);
  // Shared ownership: the retention reaper may erase a settled request
  // from the map while a concurrent status/wait still holds it.
  std::shared_ptr<Request> find_request(std::uint64_t id) const
      RANGERPP_EXCLUDES(requests_mu_);
  RequestStatus status_of(Request& req) const;
  void reap_settled() RANGERPP_REQUIRES(requests_mu_);

  SchedulerConfig config_;
  unsigned workers_ = 1;
  std::unique_ptr<Engine> engine_;  // caches shared across requests

  mutable util::Mutex requests_mu_;
  std::uint64_t next_id_ RANGERPP_GUARDED_BY(requests_mu_) = 1;
  std::map<std::uint64_t, std::shared_ptr<Request>> requests_
      RANGERPP_GUARDED_BY(requests_mu_);

  util::Mutex queue_mu_;
  util::CondVar queue_cv_;
  std::vector<std::deque<Unit*>> queues_ RANGERPP_GUARDED_BY(queue_mu_);
  bool shutdown_ RANGERPP_GUARDED_BY(queue_mu_) = false;

  std::vector<std::unique_ptr<std::atomic<std::size_t>>> kill_after_;
  std::vector<std::thread> threads_;

  // Telemetry (stats_json): pure observers of the scheduling loop —
  // never read by any scheduling decision.
  util::Timer uptime_;
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> trials_executed_{0};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> busy_us_;
};

// ---- Request wire format ----------------------------------------------------

// The scheduler protocol's spec serialisation: "key=value" lines (one
// per field, grid axes comma-separated, fault models in the
// fault_spec_token grammar; sampling=stratified and bit_group=N, the
// checkpoint header's names, appear only when non-default).
// parse_suite_spec is strict — an unknown key or malformed value throws
// std::invalid_argument with the offending line — and round-trips
// serialize_suite_spec exactly.
std::string serialize_suite_spec(const SuiteSpec& spec);
SuiteSpec parse_suite_spec(std::string_view text);

}  // namespace rangerpp::fi
