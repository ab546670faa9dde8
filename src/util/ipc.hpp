// Minimal local-socket IPC with length-prefixed framing — the transport
// under tools/scheduler_cli.  A frame is
//
//   [u32 LE payload length][u8 type][payload bytes]
//
// where `type` tags the frame for the scheduler protocol (submit,
// records, status, …) and the length counts only the payload.  Frames
// are the unit of atomicity: a reader either receives a whole frame or
// detects the torn connection — there is no partial-frame state to
// resynchronise from, mirroring the length-prefixed RPRC records of the
// checkpoint layer (fi/record_codec.hpp).
//
// Two local transports share the grammar: an AF_UNIX socket (the
// default; filesystem permissions gate access) and a TCP socket bound
// to 127.0.0.1 only (for environments without a writable socket path).
// Neither is a network protocol — the scheduler serves one machine.
//
// Thread-safety: a Conn may be used by one reader and one writer thread
// concurrently (send_frame and recv_frame each serialise internally via
// full-frame writev/read loops), but two concurrent writers must
// serialise externally or frames would interleave — scheduler_cli's
// daemon guards each connection's writer side with a util::Mutex, where
// clang's thread-safety analysis (util/thread_annotations.hpp) checks
// the discipline.  This header itself defines no capabilities: Conn's
// one-reader/one-writer split and Listener's close()-from-any-thread
// contract (an atomic stop flag plus a self-pipe wakeup, with fd
// teardown deferred to the destructor) are ownership and publication
// protocols, which the analysis cannot express — they are documented
// here and exercised under the TSan CI leg instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace rangerpp::util::ipc {

// Hard cap on a frame payload; a length prefix beyond it means a
// corrupt or hostile peer, and recv_frame fails rather than allocate.
inline constexpr std::uint32_t kMaxFramePayload = 256u * 1024u * 1024u;

// A connected stream socket (move-only; closes on destruction).
class Conn {
 public:
  Conn() = default;
  explicit Conn(int fd) : fd_(fd) {}
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();

  bool valid() const { return fd_ >= 0; }

  // Writes one whole frame; false on a closed/failed peer (SIGPIPE is
  // suppressed — a vanished client must never kill the daemon).
  bool send_frame(std::uint8_t type, std::string_view payload);

  // Reads one whole frame; false on clean EOF, a torn frame, or an
  // oversized length prefix.
  bool recv_frame(std::uint8_t& type, std::string& payload);

  void close();

 private:
  int fd_ = -1;
};

// A listening socket (move-only).  close() may be called from any
// thread: it only *signals* shutdown (an atomic flag plus a self-pipe
// byte that accept() polls alongside the listening fd), so a thread
// blocked in accept() wakes and returns an invalid Conn without the
// listening descriptor ever being closed under it — no stale-fd reuse
// window.  The descriptors themselves (and the unix socket file) are
// released by the destructor, once no thread can still be accepting.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  // Binds an AF_UNIX socket at `path` (an existing stale socket file is
  // removed first).  Throws std::runtime_error on failure.
  static Listener listen_unix(const std::string& path);
  // Binds 127.0.0.1:`port` (0 = ephemeral; port() reports the choice).
  static Listener listen_tcp(std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  // Blocks for the next connection; invalid Conn once close() was
  // called (from this or any other thread).
  Conn accept();

  // Signals shutdown and wakes a blocked accept().  Safe to call from
  // any thread, idempotent; does NOT release the descriptors (the
  // destructor does, after the accept loop has exited).
  void close();

 private:
  void release_fds();  // destructor/move-assign teardown — never
                       // concurrent with accept() by lifecycle

  int fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;  // self-pipe: close() -> accept()
  std::atomic<bool> stop_{false};
  std::uint16_t port_ = 0;
  std::string unlink_path_;  // unix socket file removed on teardown
};

// Client-side connects; an invalid Conn means the endpoint is not
// listening (callers report "is the daemon running?").
Conn connect_unix(const std::string& path);
Conn connect_tcp(std::uint16_t port);

}  // namespace rangerpp::util::ipc
