// Newline-delimited JSON protocol for `sarn serve`.
//
// Requests, one JSON object per line on stdin:
//   {"op":"query","id":12,"k":5}                     top-k of stored row 12
//   {"op":"query","vector":[0.1,0.2,...],"k":5}      top-k of an external vector
//   {"op":"query","lat":30.65,"lng":104.06,"k":3}    top-k of nearest segment
//   {"op":"stats"}                                   engine statistics
//   {"op":"statsz"}                                  per-stage latency breakdown
//                                                    + traced-request dump
//   {"op":"reload","embeddings":"emb.csv"}           hot-swap a new snapshot
// "op" defaults to "query"; "k" defaults to the CLI's --k. "lon" is accepted
// for "lng".
//
// Responses, one JSON object per line on stdout, tagged with the 0-based
// sequence number of the non-blank input line and (for queries and
// reloads) the snapshot epoch:
//   {"seq":0,"ok":true,"epoch":1,"cache":false,"id":12,
//    "neighbors":[{"id":3,"score":0.97},...]}
//   {"seq":1,"ok":false,"error":"..."}
//   {"seq":2,"ok":true,"epoch":2}                    reload published
// Replies come in seq order, each flushed as soon as it and every earlier
// one are ready; stats/statsz cover exactly the lines before them. The
// session that does this is serve/session.h.
//
// Requests are read by obs::ReadFlatJsonObject (strings, numbers, booleans,
// null, arrays of numbers; no nesting) with the repo's one JSON grammar, so
// every accepted line is RFC 8259-valid; this file adds only the field rules
// above. The emitter reuses src/obs/json escaping/number formatting so every
// output line is RFC 8259-valid too (`sarn check-json --lines true`).

#ifndef SARN_SERVE_PROTOCOL_H_
#define SARN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/query_engine.h"

namespace sarn::serve {

struct ParsedLine {
  enum class Op { kQuery, kStats, kStatsz, kReload, kInvalid };
  Op op = Op::kInvalid;
  ServeRequest request;      // kQuery.
  std::string reload_path;   // kReload.
  std::string error;         // kInvalid.
};

/// Parses one request line; never aborts on malformed input (returns
/// kInvalid with a description instead, so one bad client line cannot take
/// the server down).
ParsedLine ParseRequestLine(std::string_view line, int default_k);

/// One response line (no trailing newline), valid JSON.
std::string FormatResponseLine(uint64_t seq, const ServeResponse& response);
std::string FormatStatsLine(uint64_t seq, const ServeStats& stats);
/// statsz: per-stage latency attribution (count/total/percentiles/exemplar
/// request ids per named stage), the attributed fraction, and the traced
/// request records (recent ring + slowest table) with full timelines.
std::string FormatStatszLine(uint64_t seq, const ServeTraceStats& stats);
std::string FormatErrorLine(uint64_t seq, const std::string& error);
std::string FormatReloadLine(uint64_t seq, bool ok, uint64_t epoch,
                             const std::string& error);

}  // namespace sarn::serve

#endif  // SARN_SERVE_PROTOCOL_H_
