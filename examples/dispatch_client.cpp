// Campaign status poller: connects to a running dispatch_daemon, asks
// for its status, and prints the reply JSON (shard states, re-issue
// counts, connected workers, classes folded so far). The dispatcher
// answers pollers mid-campaign without disturbing the workers -- this
// plus merge_shards on the (checkpointed) master journal is the
// monitoring story for long fleet runs.
//
// Usage: dispatch_client --connect=HOST:PORT [--wait] [--interval-ms=T]
//   --connect=HOST:PORT   dispatcher endpoint (bare PORT = loopback)
//   --wait                poll repeatedly until the campaign settles
//                         (every --interval-ms, default 1000); exits 0
//                         on a clean campaign, 3 when shards ended
//                         unresolved
//   --interval-ms=T       polling interval for --wait
//   --timeout-ms=T        per-poll connect/read budget (default 5000)
//
// Without --wait: prints one status JSON and exits 0 (1 when the
// dispatcher is unreachable).
//
// Exit codes: 0 campaign settled clean; 3 settled with unresolved
// shards; 1 dispatcher unreachable / bad reply; 4 (--wait only) the
// dispatcher exited between polls -- the campaign is over but this
// client never saw the final state; consult the daemon's report.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "campaign_args.hpp"
#include "dispatch/framing.hpp"
#include "dispatch/protocol.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/shutdown.hpp"
#include "util/socket.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect=HOST:PORT [--wait] [--interval-ms=T]\n"
               "          [--timeout-ms=T]\n",
               argv0);
}

/// One status round trip: fresh connection, status frame, reply frame.
/// The dispatcher hangs up after answering a bare poller, so every poll
/// is a new connection.
std::string poll_status(const std::string& host, std::uint16_t port,
                        double timeout_ms) {
  using namespace dot;
  auto sock = util::TcpSocket::connect(host, port, timeout_ms);
  dispatch::Message ask;
  ask.type = dispatch::MsgType::kStatus;
  const std::string frame = dispatch::encode_frame(dispatch::encode_message(ask));
  if (!sock.write_all(frame.data(), frame.size(), timeout_ms))
    throw util::IoError("dispatcher closed before answering the poll");
  dispatch::FrameDecoder decoder;
  util::Deadline deadline(timeout_ms);
  char buf[4096];
  while (true) {
    if (auto payload = decoder.next()) {
      const auto msg = dispatch::decode_message(*payload);
      if (msg.type != dispatch::MsgType::kStatusReply)
        throw util::ProtocolError("unexpected reply to status poll");
      return msg.status;
    }
    if (deadline.expired())
      throw util::IoError("status poll timed out");
    std::vector<util::PollItem> items{{sock.fd(), false, false}};
    util::poll_readable(items, std::min(100.0, deadline.remaining_ms()));
    std::size_t got = 0;
    switch (sock.read_some(buf, sizeof buf, got)) {
      case util::ReadStatus::kData:
        decoder.feed(buf, got);
        break;
      case util::ReadStatus::kWouldBlock:
        break;
      case util::ReadStatus::kClosed:
        if (auto payload = decoder.next()) {
          const auto msg = dispatch::decode_message(*payload);
          if (msg.type == dispatch::MsgType::kStatusReply) return msg.status;
        }
        throw util::IoError("dispatcher closed before answering the poll");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dot;

  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool wait = false;
  double interval_ms = 1000.0;
  double timeout_ms = 5000.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    examples::ArgParse r = examples::parse_whole_arg(
        argv[0], arg, "--interval-ms", 1, 3600000, interval_ms);
    if (r == examples::ArgParse::kUnknown)
      r = examples::parse_whole_arg(argv[0], arg, "--timeout-ms", 1, 3600000,
                                    timeout_ms);
    if (r == examples::ArgParse::kBad) {
      usage(argv[0]);
      return 2;
    }
    if (r == examples::ArgParse::kConsumed) continue;
    if (const char* v = examples::arg_value(arg, "--connect=")) {
      if (!examples::parse_endpoint(argv[0], v, host, port)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--wait") {
      wait = true;
    } else if (arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "%s: --connect=HOST:PORT is required\n", argv[0]);
    usage(argv[0]);
    return 2;
  }
  util::arm_shutdown_handler();

  bool seen_ok = false;
  while (true) {
    std::string status;
    try {
      status = poll_status(host, port, timeout_ms);
    } catch (const std::exception& e) {
      if (wait && seen_ok) {
        // The daemon answers pollers until the moment it settles and
        // exits; losing that race is not an error, but the final
        // clean/unresolved state was never seen here.
        std::fprintf(stderr,
                     "%s: dispatcher exited between polls (campaign "
                     "settled); consult its report for the outcome\n",
                     argv[0]);
        return 4;
      }
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 1;
    }
    seen_ok = true;
    std::printf("%s\n", status.c_str());
    std::fflush(stdout);
    if (!wait) return 0;
    try {
      const auto parsed = util::parse_json(status);
      if (parsed.get("done").as_bool())
        return parsed.get("clean").as_bool() ? 0 : 3;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: bad status reply: %s\n", argv[0], e.what());
      return 1;
    }
    if (util::shutdown_requested()) return util::shutdown_exit_status();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(interval_ms));
  }
}
