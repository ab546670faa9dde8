// scheduler_cli — the campaign scheduler daemon (fi::Scheduler) and its
// client, over the local-socket framing in util/ipc.hpp.
//
// Serve (a resident engine; AF_UNIX socket or 127.0.0.1 TCP):
//   scheduler_cli serve --socket /tmp/rangerpp.sock --workers 4
//                       --dir build/sched [--partitions 4] [--slice 256]
//
// Submit a grid and stream its records back (the spec grammar is the
// suite_cli grid; --spec FILE holds the key=value wire form, inline
// flags compose the same lines):
//   scheduler_cli submit --socket /tmp/rangerpp.sock
//                        --name smoke --models lenet --faults b1
//                        --trials 100 --inputs 2 --out build/sched_out
//
// The client writes each cell as <name>.<cell-id>.s0of1.rcp —
// byte-identical to the checkpoint a one-shot `suite_cli --dir` run of
// the same spec writes, which is exactly what the CI scheduler-smoke job
// `cmp`s.  Records travel as RPRC frames (fi/record_codec.hpp), the
// encoding of every checkpoint; the daemon's partition checkpoints are
// named as suite shards, so `suite_cli --merge --dir <serve dir>` merges
// them like any shards.
//
// Inspect / cancel / stop:
//   scheduler_cli status --socket S [--id N]
//   scheduler_cli stats  --socket S [--watch N]   (live engine JSON)
//   scheduler_cli cancel --socket S --id N
//   scheduler_cli shutdown --socket S
//
// Protocol frames (type byte; see util/ipc.hpp for the framing):
//   client→server  'S' submit (spec text)   'Q' status ("" or id)
//                  'C' cancel (id)          'K' shutdown
//                  'M' stats (empty payload)
//   server→client  'P' plan ack (id/cells/planned)
//                  'H' cell header (u32 LE cell index + codec header)
//                  'R' records    (u32 LE cell index + codec frames)
//                  'D' done (final status)  'T' status/stats text
//                  'A' ack                  'E' error (message)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fi/record_codec.hpp"
#include "fi/scheduler.hpp"
#include "tools/cli_flags.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

using namespace rangerpp;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "scheduler_cli: %s\n\n", msg);
  std::fprintf(
      stderr,
      "usage: scheduler_cli serve    (--socket PATH | --port N) [options]\n"
      "       scheduler_cli submit   (--socket PATH | --port N) "
      "(--spec FILE | grid flags) [--out DIR]\n"
      "       scheduler_cli status   (--socket PATH | --port N) [--id N]\n"
      "       scheduler_cli stats    (--socket PATH | --port N) [--watch N]\n"
      "       scheduler_cli cancel   (--socket PATH | --port N) --id N\n"
      "       scheduler_cli shutdown (--socket PATH | --port N)\n"
      "       scheduler_cli --list\n"
      "\n"
      "transport (one required):\n"
      "  --socket PATH        AF_UNIX socket path\n"
      "  --port N             TCP on 127.0.0.1:N (serve: 0 = ephemeral,\n"
      "                       the chosen port is printed)\n"
      "serve options:\n"
      "  --workers N          worker threads (default: all cores)\n"
      "  --partitions P       deterministic shard partitions per cell\n"
      "                       (the work-stealing grain; default 4)\n"
      "  --slice N            trials per scheduling slice (default 256;\n"
      "                       0 = run whole partitions)\n"
      "  --verify-plan        statically verify every compiled cell plan\n"
      "                       (graph/verify); a malformed grid request is\n"
      "                       refused with a diagnostic instead of running\n"
      "  --dir DIR            checkpoint directory (crash/cancel\n"
      "                       recovery; suite_cli --merge reads it;\n"
      "                       default: in-memory only)\n"
      "  --crash-worker W:S   fault drill: worker W dies after S slices\n"
      "                       (its last slice checkpoints but does not\n"
      "                       stream — survivors must adopt and resume)\n"
      "  --trace FILE         write a Chrome trace-event JSON of the\n"
      "                       daemon's spans on shutdown (RANGERPP_TRACE\n"
      "                       does the same without the flag)\n"
      "stats options:\n"
      "  --watch N            re-poll every N seconds until interrupted\n"
      "submit options:\n"
      "  --spec FILE          key=value spec ('-' = stdin); inline grid\n"
      "                       flags below override/compose the same keys\n"
      "  --name NAME          request name (checkpoint/export prefix)\n"
      "  --models LIST        e.g. lenet,alexnet (see --list)\n"
      "  --acts LIST          default | relu | tanh | sigmoid | elu\n"
      "  --dtypes LIST        fixed32 | fixed16 | int8 | float32\n"
      "  --faults LIST        fault tokens: b1 b3c wstuck0-secded ...\n"
      "  --techniques LIST    unprotected | ranger | ranger-paired\n"
      "  --trials N           trials per input for the small models\n"
      "  --trials-divisor D   divide every cell's trials by D\n"
      "  --inputs N           FI inputs per model\n"
      "  --seed S             campaign seed\n"
      "  --check-every N      checkpoint/early-stop batch\n"
      "  --target-ci PCT      per-cell Wilson-CI early stop\n"
      "  --out DIR            write per-cell checkpoints\n"
      "                       (<name>.<cell-id>.s0of1.rcp — byte-equal\n"
      "                       to a one-shot suite_cli --dir run)\n"
      "  --quiet              no per-frame progress\n");
  std::exit(2);
}

std::size_t size_flag(const std::string& flag, const std::string& v) {
  return cli::size_flag(&usage, flag, v);
}

// ---- Protocol helpers -------------------------------------------------------

constexpr std::uint8_t kSubmit = 'S', kPlan = 'P', kHeader = 'H',
                       kRecords = 'R', kDone = 'D', kStatusReq = 'Q',
                       kStatusText = 'T', kCancel = 'C', kAck = 'A',
                       kShutdown = 'K', kError = 'E', kStats = 'M';

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

bool take_u32(std::string_view& payload, std::uint32_t& v) {
  if (payload.size() < 4) return false;
  const auto* b = reinterpret_cast<const unsigned char*>(payload.data());
  v = static_cast<std::uint32_t>(b[0]) |
      (static_cast<std::uint32_t>(b[1]) << 8) |
      (static_cast<std::uint32_t>(b[2]) << 16) |
      (static_cast<std::uint32_t>(b[3]) << 24);
  payload.remove_prefix(4);
  return true;
}

std::string status_line(const fi::RequestStatus& st) {
  std::string line = std::to_string(st.id) + " " +
                     std::string(fi::request_state_token(st.state)) + " " +
                     st.name + " cells=" + std::to_string(st.cells) +
                     " planned=" + std::to_string(st.planned_trials) +
                     " streamed=" + std::to_string(st.streamed_trials);
  if (!st.error.empty()) line += " error=" + st.error;
  return line;
}

// ---- serve ------------------------------------------------------------------

struct ServeOptions {
  std::string socket_path;
  bool use_tcp = false;
  std::uint16_t port = 0;
  fi::SchedulerConfig sched;
  bool crash_set = false;
  unsigned crash_worker = 0;
  std::size_t crash_slices = 0;
  std::string trace_path;
};

// One client command per connection.  A submit connection stays open for
// the life of its request and streams records as they become available;
// the other commands are one request/reply exchange.
void handle_connection(util::ipc::Conn conn, fi::Scheduler& sched,
                       util::ipc::Listener& listener,
                       std::atomic<bool>& stopping) {
  std::uint8_t type = 0;
  std::string payload;
  if (!conn.recv_frame(type, payload)) return;
  try {
    switch (type) {
      case kSubmit: {
        const fi::SuiteSpec spec = fi::parse_suite_spec(payload);
        const fi::SuitePlan plan = fi::compile_suite(spec);
        // Sink calls are serialised per request by the scheduler, but
        // they start racing this thread's 'P' plan ack as soon as
        // submit() queues the first cell (a warm-cache first slice can
        // stream within microseconds; a cold request's first cell
        // streams while submit() still builds the later cells), and
        // send_frame writes prefix and payload as two send()s —
        // concurrent writers would interleave frames.
        // ipc.hpp requires external serialisation, so every send on
        // this connection goes through one shared mutex.  A vanished
        // client (send failure) stops the stream but not the request:
        // its checkpoints keep filling, and the daemon keeps its
        // records until the retention reaper evicts them.
        auto send_mu = std::make_shared<util::Mutex>();
        const auto send = [&conn, send_mu](std::uint8_t t,
                                           std::string_view p) {
          util::MutexLock lk(*send_mu);
          return conn.send_frame(t, p);
        };
        auto sent_header = std::make_shared<std::vector<bool>>(
            plan.cells.size(), false);
        auto client_gone = std::make_shared<std::atomic<bool>>(false);
        const std::uint64_t id = sched.submit(
            spec, [send, sent_header, client_gone](
                      std::size_t ci, const fi::CheckpointHeader& h,
                      const std::vector<fi::TrialRecord>& records) {
              if (client_gone->load(std::memory_order_relaxed)) return;
              std::string frame;
              if (!(*sent_header)[ci]) {
                put_u32(frame, static_cast<std::uint32_t>(ci));
                fi::encode_stream_header(frame, h);
                if (!send(kHeader, frame)) {
                  client_gone->store(true, std::memory_order_relaxed);
                  return;
                }
                (*sent_header)[ci] = true;
                frame.clear();
              }
              put_u32(frame, static_cast<std::uint32_t>(ci));
              frame += fi::encode_records(records);
              if (!send(kRecords, frame))
                client_gone->store(true, std::memory_order_relaxed);
            });
        std::string plan_ack = "id=" + std::to_string(id) +
                               "\ncells=" + std::to_string(plan.cells.size()) +
                               "\nplanned=" + std::to_string(plan.total_trials) +
                               "\n";
        send(kPlan, plan_ack);
        try {
          sched.wait(id);
        } catch (const std::exception& e) {
          send(kError, e.what());
          return;
        }
        const auto st = sched.status(id);
        send(kDone, st ? status_line(*st) : "settled");
        // The stream was fully delivered — the client owns the records
        // now, so drop the daemon-side copy.  A vanished client keeps
        // its buffered records until retention reaps them (the on-disk
        // checkpoints stay resumable either way).
        if (!client_gone->load(std::memory_order_relaxed))
          sched.release(id);
        return;
      }
      case kStatusReq: {
        std::string out;
        if (payload.empty()) {
          for (const fi::RequestStatus& st : sched.status_all())
            out += status_line(st) + "\n";
        } else {
          std::uint64_t id = 0;
          if (!util::parse_u64(payload.c_str(), id)) {
            conn.send_frame(kError, "status wants a numeric id");
            return;
          }
          const auto st = sched.status(id);
          if (!st) {
            conn.send_frame(kError, "unknown request id " + payload);
            return;
          }
          out = status_line(*st) + "\n";
        }
        conn.send_frame(kStatusText, out);
        return;
      }
      case kCancel: {
        std::uint64_t id = 0;
        if (!util::parse_u64(payload.c_str(), id)) {
          conn.send_frame(kError, "cancel wants a numeric id");
          return;
        }
        conn.send_frame(kAck, sched.cancel(id) ? "ok" : "no");
        return;
      }
      case kStats: {
        conn.send_frame(kStatusText, sched.stats_json());
        return;
      }
      case kShutdown: {
        conn.send_frame(kAck, "ok");
        stopping.store(true, std::memory_order_relaxed);
        listener.close();  // wakes the accept loop
        return;
      }
      default:
        conn.send_frame(kError, "unknown frame type");
        return;
    }
  } catch (const std::exception& e) {
    conn.send_frame(kError, e.what());
  }
}

int run_serve(const ServeOptions& opt) {
  // The daemon always keeps the metrics registry live — the `stats`
  // verb should answer with real figures without pre-arrangement.
  // Telemetry observes the engine; it never feeds back into it, so the
  // record streams stay byte-identical either way (the CI cmp gate).
  util::metrics::set_enabled(true);
  if (!opt.trace_path.empty())
    util::trace::start(opt.trace_path);
  else
    util::trace::start_from_env();
  util::ipc::Listener listener =
      opt.use_tcp ? util::ipc::Listener::listen_tcp(opt.port)
                  : util::ipc::Listener::listen_unix(opt.socket_path);
  fi::Scheduler sched(opt.sched);
  if (opt.crash_set)
    sched.kill_worker_after(opt.crash_worker, opt.crash_slices);

  if (opt.use_tcp)
    std::printf("scheduler_cli: serving on 127.0.0.1:%u (%u workers)\n",
                listener.port(), sched.worker_count());
  else
    std::printf("scheduler_cli: serving on %s (%u workers)\n",
                opt.socket_path.c_str(), sched.worker_count());
  std::fflush(stdout);

  std::atomic<bool> stopping{false};
  std::vector<std::thread> handlers;
  while (true) {
    util::ipc::Conn conn = listener.accept();
    if (!conn.valid()) break;  // listener closed (shutdown command)
    handlers.emplace_back(
        [c = std::move(conn), &sched, &listener, &stopping]() mutable {
          handle_connection(std::move(c), sched, listener, stopping);
        });
  }
  for (std::thread& t : handlers)
    if (t.joinable()) t.join();
  sched.shutdown();
  util::trace::stop_and_flush();
  std::printf("scheduler_cli: stopped\n");
  return 0;
}

// ---- client modes -----------------------------------------------------------

struct ClientOptions {
  std::string socket_path;
  bool use_tcp = false;
  std::uint16_t port = 0;
};

util::ipc::Conn connect(const ClientOptions& opt) {
  util::ipc::Conn conn = opt.use_tcp
                             ? util::ipc::connect_tcp(opt.port)
                             : util::ipc::connect_unix(opt.socket_path);
  if (!conn.valid()) {
    std::fprintf(stderr,
                 "scheduler_cli: cannot connect (is the daemon running?)\n");
    std::exit(1);
  }
  return conn;
}

int run_submit(const ClientOptions& opt, const fi::SuiteSpec& spec,
               const std::string& out_dir, bool quiet) {
  const fi::SuitePlan plan = fi::compile_suite(spec);
  util::ipc::Conn conn = connect(opt);
  if (!conn.send_frame(kSubmit, fi::serialize_suite_spec(spec))) {
    std::fprintf(stderr, "scheduler_cli: connection lost on submit\n");
    return 1;
  }

  std::map<std::size_t, fi::CheckpointHeader> headers;
  std::map<std::size_t, std::vector<fi::TrialRecord>> records;
  std::string final_status;
  bool done = false;
  std::uint8_t type = 0;
  std::string payload;
  while (conn.recv_frame(type, payload)) {
    std::string_view view = payload;
    std::uint32_t ci = 0;
    switch (type) {
      case kPlan:
        if (!quiet) std::printf("accepted:\n%s", payload.c_str());
        break;
      case kHeader: {
        if (!take_u32(view, ci)) usage("malformed header frame");
        // A header-only codec stream: reuse the checkpoint decoder.
        headers[ci] = fi::decode_stream(std::string(view)).header;
        break;
      }
      case kRecords: {
        if (!take_u32(view, ci)) usage("malformed record frame");
        const std::vector<fi::TrialRecord> batch =
            fi::decode_records(std::string(view));
        auto& v = records[ci];
        v.insert(v.end(), batch.begin(), batch.end());
        if (!quiet)
          std::printf("cell %u: +%zu records (%zu so far)\n", ci,
                      batch.size(), v.size());
        break;
      }
      case kDone:
        final_status = payload;
        done = true;
        break;
      case kError:
        std::fprintf(stderr, "scheduler_cli: server error: %s\n",
                     payload.c_str());
        return 1;
      default:
        std::fprintf(stderr, "scheduler_cli: unexpected frame type %u\n",
                     type);
        return 1;
    }
    if (done) break;
  }
  if (!done) {
    std::fprintf(stderr, "scheduler_cli: connection lost mid-stream "
                         "(server checkpoints remain resumable)\n");
    return 1;
  }
  std::printf("%s\n", final_status.c_str());

  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    for (std::size_t ci = 0; ci < plan.cells.size(); ++ci) {
      const auto h = headers.find(ci);
      const auto r = records.find(ci);
      if (h == headers.end() || r == records.end()) continue;
      const std::string path =
          (std::filesystem::path(out_dir) /
           fi::cell_checkpoint_name(spec.name, plan.cells[ci], 0, 1))
              .string();
      fi::write_checkpoint(path, h->second, fi::sort_unique_records(r->second));
      std::printf("wrote %s (%zu records)\n", path.c_str(),
                  r->second.size());
    }
  }
  // Non-zero when the request settled any way but done — scripts gate
  // on a fully delivered stream.
  return final_status.find(" done ") != std::string::npos ? 0 : 3;
}

int run_simple(const ClientOptions& opt, std::uint8_t type,
               const std::string& payload) {
  util::ipc::Conn conn = connect(opt);
  if (!conn.send_frame(type, payload)) {
    std::fprintf(stderr, "scheduler_cli: connection lost\n");
    return 1;
  }
  std::uint8_t rtype = 0;
  std::string reply;
  if (!conn.recv_frame(rtype, reply)) {
    std::fprintf(stderr, "scheduler_cli: no reply\n");
    return 1;
  }
  if (rtype == kError) {
    std::fprintf(stderr, "scheduler_cli: %s\n", reply.c_str());
    return 1;
  }
  std::printf("%s%s", reply.c_str(),
              (!reply.empty() && reply.back() == '\n') ? "" : "\n");
  return (rtype == kAck && reply == "no") ? 1 : 0;
}

// `stats` polls: one fresh connection per sample (the daemon serves one
// command per connection), re-printing the JSON every watch_s seconds.
int run_stats(const ClientOptions& opt, int watch_s) {
  for (;;) {
    const int rc = run_simple(opt, kStats, "");
    if (rc != 0 || watch_s <= 0) return rc;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(watch_s));
  }
}

std::string slurp_file(const std::string& path) {
  if (path == "-") {
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, stdin)) > 0)
      out.append(buf, n);
    return out;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) usage(("cannot read --spec file '" + path + "'").c_str());
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  if (mode == "--list") {
    cli::print_axes(stdout);
    return 0;
  }
  if (mode == "--help" || mode == "-h") usage();
  const bool serve = mode == "serve", submit = mode == "submit",
             status = mode == "status", cancel = mode == "cancel",
             shutdown = mode == "shutdown", stats = mode == "stats";
  if (!serve && !submit && !status && !cancel && !shutdown && !stats)
    usage(("unknown mode '" + mode +
           "' (serve|submit|status|stats|cancel|shutdown)")
              .c_str());

  ServeOptions so;
  ClientOptions co;
  bool transport_set = false;
  std::string spec_file, out_dir, id_arg;
  bool quiet = false;
  int watch_s = 0;
  // Inline grid flags compose the same key=value lines --spec holds, so
  // the strict wire parser is the only spec grammar.
  std::string inline_spec;
  const auto spec_line = [&inline_spec](const std::string& key,
                                        const std::string& value) {
    inline_spec += key + "=" + value + "\n";
  };

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--socket") {
      so.socket_path = co.socket_path = value();
      if (so.socket_path.empty()) usage("--socket wants a path");
      transport_set = true;
    } else if (arg == "--port") {
      const int p = cli::int_flag(&usage, arg, value(), 0, 65535);
      so.use_tcp = co.use_tcp = true;
      so.port = co.port = static_cast<std::uint16_t>(p);
      transport_set = true;
    } else if (serve && arg == "--workers") {
      so.sched.workers = static_cast<unsigned>(
          cli::int_flag(&usage, arg, value(), 1, 1 << 10));
    } else if (serve && arg == "--partitions") {
      so.sched.partitions_per_cell = size_flag(arg, value());
      if (so.sched.partitions_per_cell == 0)
        usage("--partitions wants >= 1");
    } else if (serve && arg == "--slice") {
      so.sched.slice_trials = size_flag(arg, value());
    } else if (serve && arg == "--dir") {
      so.sched.checkpoint_dir = value();
    } else if (serve && arg == "--verify-plan") {
      so.sched.verify_plans = true;
    } else if (serve && arg == "--trace") {
      so.trace_path = value();
      if (so.trace_path.empty()) usage("--trace wants a path");
    } else if (serve && arg == "--crash-worker") {
      const std::string v = value();
      const std::size_t colon = v.find(':');
      std::uint64_t w = 0, s = 0;
      if (colon == std::string::npos ||
          !util::parse_u64(v.substr(0, colon).c_str(), w) ||
          !util::parse_u64(v.substr(colon + 1).c_str(), s))
        usage("--crash-worker wants WORKER:SLICES");
      so.crash_set = true;
      so.crash_worker = static_cast<unsigned>(w);
      so.crash_slices = static_cast<std::size_t>(s);
    } else if (submit && arg == "--spec") {
      spec_file = value();
    } else if (submit && arg == "--name") spec_line("name", value());
    else if (submit && arg == "--models") spec_line("models", value());
    else if (submit && arg == "--acts") spec_line("acts", value());
    else if (submit && arg == "--dtypes") spec_line("dtypes", value());
    else if (submit && arg == "--faults") spec_line("faults", value());
    else if (submit && arg == "--techniques")
      spec_line("techniques", value());
    else if (submit && arg == "--trials") spec_line("trials", value());
    else if (submit && arg == "--trials-divisor")
      spec_line("trials_divisor", value());
    else if (submit && arg == "--inputs") spec_line("inputs", value());
    else if (submit && arg == "--seed") spec_line("seed", value());
    else if (submit && arg == "--check-every")
      spec_line("check_every", value());
    else if (submit && arg == "--target-ci")
      spec_line("target_ci", value());
    else if (submit && arg == "--out") out_dir = value();
    else if (submit && arg == "--quiet") quiet = true;
    else if (stats && arg == "--watch")
      watch_s = cli::int_flag(&usage, arg, value(), 1, 86400);
    else if ((status || cancel) && arg == "--id") {
      id_arg = value();
      std::uint64_t id = 0;
      if (!util::parse_u64(id_arg.c_str(), id))
        usage("--id wants a request id");
    } else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown flag " + arg + " for mode " + mode).c_str());
  }

  if (!transport_set) usage("one of --socket/--port is required");
  if (cancel && id_arg.empty()) usage("cancel requires --id");

  try {
    if (serve) return run_serve(so);
    if (submit) {
      std::string text = spec_file.empty() ? "" : slurp_file(spec_file);
      text += inline_spec;  // inline flags override --spec lines
      if (text.empty())
        usage("submit wants --spec FILE or inline grid flags");
      return run_submit(co, fi::parse_suite_spec(text), out_dir, quiet);
    }
    if (status) return run_simple(co, kStatusReq, id_arg);
    if (stats) return run_stats(co, watch_s);
    if (cancel) return run_simple(co, kCancel, id_arg);
    return run_simple(co, kShutdown, "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scheduler_cli: %s\n", e.what());
    return 2;
  }
}
