// Message schema of the dispatch wire protocol (payloads inside the
// length-prefixed frames of framing.hpp).
//
// Every message is one JSON object with a "type" field. The handshake
// carries the campaign's journal meta record verbatim (as an embedded
// string), so the dispatcher validates a connecting worker with the
// exact meta-mismatch interlock the journal layer uses for resume/merge
// -- a worker built for a different seed, defect budget or macro
// geometry is rejected by field name before any work is assigned.
//
//   worker -> dispatcher    hello, heartbeat, record, shard_done,
//                           shard_failed
//   dispatcher -> worker    welcome | reject, assign, abandon, bye
//   client -> dispatcher    status
//   dispatcher -> client    status_reply
//
// Journal record lines and meta records travel as embedded JSON strings
// (not nested objects): the dispatcher appends record lines to the
// master journal byte-identically, which is what makes the dispatched
// merge bit-comparable to a single-host run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dot::dispatch {

/// Bumped on any wire-incompatible change; hello/welcome carry it and
/// either side refuses a mismatch.
inline constexpr int kProtocolVersion = 1;

enum class MsgType {
  kHello,        ///< worker: protocol version + campaign meta record
  kWelcome,      ///< dispatcher: accepted; worker id + heartbeat interval
  kReject,       ///< dispatcher: refused (mismatched meta, bad version)
  kAssign,       ///< dispatcher: run shard K of N; completed tail enclosed
  kHeartbeat,    ///< worker: liveness beacon
  kRecord,       ///< worker: one completed journal record line
  kShardDone,    ///< worker: shard fully evaluated
  kShardFailed,  ///< worker: shard aborted (error/interrupt); reason enclosed
  kAbandon,      ///< dispatcher: stop working on shard (race lost)
  kBye,          ///< dispatcher: campaign complete, disconnect
  kStatus,       ///< client: poll request
  kStatusReply,  ///< dispatcher: status JSON for pollers
};

const char* msg_type_name(MsgType type);

/// One decoded message; only the fields relevant to `type` are set.
struct Message {
  MsgType type = MsgType::kHeartbeat;
  int protocol = kProtocolVersion;     ///< hello / welcome
  std::string meta;                    ///< hello: journal meta record line
  int worker_id = -1;                  ///< welcome
  double heartbeat_ms = 0.0;           ///< welcome: expected beacon interval
  std::string reason;                  ///< reject / shard_failed
  std::size_t shard = 0;               ///< assign / record / done / failed / abandon
  std::size_t shard_count = 0;         ///< assign
  std::vector<std::string> completed;  ///< assign: journal lines to skip
  std::string line;                    ///< record: journal record line
  std::string status;                  ///< status_reply: status JSON
};

std::string encode_message(const Message& msg);

/// Decodes one frame payload. Throws util::ProtocolError on malformed
/// JSON, an unknown type, or missing fields -- the connection that sent
/// it is dropped, never interpreted loosely.
Message decode_message(const std::string& payload);

}  // namespace dot::dispatch
