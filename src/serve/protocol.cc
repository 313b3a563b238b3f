#include "serve/protocol.h"

#include <cmath>
#include <optional>
#include <vector>

#include "obs/json.h"

namespace sarn::serve {
namespace {

using obs::FlatJsonValue;
using Type = FlatJsonValue::Type;

ParsedLine Invalid(std::string error) {
  ParsedLine parsed;
  parsed.op = ParsedLine::Op::kInvalid;
  parsed.error = std::move(error);
  return parsed;
}

std::optional<int64_t> AsInteger(const FlatJsonValue& field) {
  if (field.type != Type::kNumber) return std::nullopt;
  double rounded = std::nearbyint(field.number);
  if (rounded != field.number || std::fabs(rounded) > 9.2e18) return std::nullopt;
  return static_cast<int64_t>(rounded);
}

void AppendNeighbors(const std::vector<tasks::Neighbor>& neighbors,
                     std::string* out) {
  out->append("\"neighbors\":[");
  for (size_t i = 0; i < neighbors.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append("{\"id\":");
    out->append(std::to_string(neighbors[i].id));
    out->append(",\"score\":");
    out->append(obs::JsonNumber(neighbors[i].score));
    out->push_back('}');
  }
  out->push_back(']');
}

}  // namespace

ParsedLine ParseRequestLine(std::string_view line, int default_k) {
  obs::FlatJsonObject fields;
  std::string error;
  if (!obs::ReadFlatJsonObject(line, &fields, &error)) {
    return Invalid("parse error: " + error);
  }

  std::string op = "query";
  if (const FlatJsonValue* field = fields.Find("op")) {
    if (field->type != Type::kString) return Invalid("\"op\" must be a string");
    op = field->text;
  }

  if (op == "stats") {
    ParsedLine parsed;
    parsed.op = ParsedLine::Op::kStats;
    return parsed;
  }
  if (op == "statsz") {
    ParsedLine parsed;
    parsed.op = ParsedLine::Op::kStatsz;
    return parsed;
  }
  if (op == "reload") {
    const FlatJsonValue* path = fields.Find("embeddings");
    if (path == nullptr || path->type != Type::kString || path->text.empty()) {
      return Invalid("reload needs \"embeddings\": \"<csv path>\"");
    }
    if (path->non_ascii_escape) {
      return Invalid("\"embeddings\" path: non-ASCII \\u escape unsupported");
    }
    ParsedLine parsed;
    parsed.op = ParsedLine::Op::kReload;
    parsed.reload_path = path->text;
    return parsed;
  }
  if (op != "query") return Invalid("unknown op \"" + op + "\"");

  ParsedLine parsed;
  parsed.op = ParsedLine::Op::kQuery;
  parsed.request.k = default_k;
  if (const FlatJsonValue* k = fields.Find("k")) {
    std::optional<int64_t> value = AsInteger(*k);
    if (!value.has_value() || *value < 0 || *value > 1'000'000) {
      return Invalid("\"k\" must be a non-negative integer");
    }
    parsed.request.k = static_cast<int>(*value);
  }

  const FlatJsonValue* id = fields.Find("id");
  const FlatJsonValue* vector = fields.Find("vector");
  const FlatJsonValue* lat = fields.Find("lat");
  const FlatJsonValue* lng = fields.Find("lng");
  if (lng == nullptr) lng = fields.Find("lon");
  const int selectors = (id != nullptr) + (vector != nullptr) +
                        (lat != nullptr || lng != nullptr);
  if (selectors != 1) {
    return Invalid("query needs exactly one of \"id\", \"vector\", or \"lat\"+\"lng\"");
  }

  if (id != nullptr) {
    std::optional<int64_t> value = AsInteger(*id);
    if (!value.has_value() || *value < 0) return Invalid("\"id\" must be an integer >= 0");
    parsed.request.kind = ServeRequest::Kind::kById;
    parsed.request.id = *value;
    return parsed;
  }
  if (vector != nullptr) {
    if (vector->type != Type::kNumberArray || vector->numbers.empty()) {
      return Invalid("\"vector\" must be a non-empty array of numbers");
    }
    parsed.request.kind = ServeRequest::Kind::kByVector;
    parsed.request.vector.reserve(vector->numbers.size());
    for (double v : vector->numbers) {
      parsed.request.vector.push_back(static_cast<float>(v));
    }
    return parsed;
  }
  if (lat == nullptr || lng == nullptr || lat->type != Type::kNumber ||
      lng->type != Type::kNumber) {
    return Invalid("point query needs numeric \"lat\" and \"lng\"");
  }
  parsed.request.kind = ServeRequest::Kind::kByPoint;
  parsed.request.point = geo::LatLng{lat->number, lng->number};
  return parsed;
}

std::string FormatResponseLine(uint64_t seq, const ServeResponse& response) {
  std::string out;
  out.reserve(64 + response.neighbors.size() * 32);
  out.append("{\"seq\":");
  out.append(std::to_string(seq));
  out.append(",\"ok\":");
  out.append(response.ok ? "true" : "false");
  if (!response.ok) {
    out.append(",\"error\":\"");
    obs::JsonEscape(response.error, &out);
    out.append("\"}");
    return out;
  }
  out.append(",\"epoch\":");
  out.append(std::to_string(response.epoch));
  out.append(",\"cache\":");
  out.append(response.cache_hit ? "true" : "false");
  if (response.query_id >= 0) {
    out.append(",\"id\":");
    out.append(std::to_string(response.query_id));
  }
  out.push_back(',');
  AppendNeighbors(response.neighbors, &out);
  out.push_back('}');
  return out;
}

std::string FormatStatsLine(uint64_t seq, const ServeStats& stats) {
  std::string out;
  out.append("{\"seq\":");
  out.append(std::to_string(seq));
  out.append(",\"ok\":true,\"stats\":{");
  out.append("\"requests\":" + std::to_string(stats.requests));
  out.append(",\"errors\":" + std::to_string(stats.errors));
  out.append(",\"batches\":" + std::to_string(stats.batches));
  out.append(",\"cache_hits\":" + std::to_string(stats.cache_hits));
  out.append(",\"cache_misses\":" + std::to_string(stats.cache_misses));
  out.append(",\"swaps\":" + std::to_string(stats.swaps));
  out.append(",\"epoch\":" + std::to_string(stats.epoch));
  out.append(",\"index_bytes\":" + std::to_string(stats.index_bytes));
  out.append(",\"precision\":\"" + stats.precision + "\"");
  out.append(",\"simd_tier\":\"" + stats.simd_tier + "\"");
  out.append(",\"uptime_seconds\":" + obs::JsonNumber(stats.uptime_seconds));
  out.append(",\"qps\":" + obs::JsonNumber(stats.qps));
  out.append(",\"mean_batch_size\":" + obs::JsonNumber(stats.mean_batch_size));
  out.append(",\"latency_p50_ms\":" + obs::JsonNumber(stats.latency_p50_ms));
  out.append(",\"latency_p95_ms\":" + obs::JsonNumber(stats.latency_p95_ms));
  out.append(",\"latency_p99_ms\":" + obs::JsonNumber(stats.latency_p99_ms));
  out.append(",\"snapshot\":{");
  out.append("\"loads\":" + std::to_string(stats.snapshot_loads));
  out.append(",\"load_errors\":" + std::to_string(stats.snapshot_load_errors));
  out.append(",\"bytes\":" + std::to_string(stats.snapshot_bytes));
  out.append(",\"mapped_bytes\":" + std::to_string(stats.snapshot_mapped_bytes));
  out.append(",\"copied_bytes\":" + std::to_string(stats.snapshot_copied_bytes));
  out.append("},\"index\":{");
  out.append("\"block_queries\":" + std::to_string(stats.index_block_queries));
  out.append(",\"tail_queries\":" + std::to_string(stats.index_tail_queries));
  out.append("}}}");
  return out;
}

namespace {

void AppendRecord(const obs::RequestRecord& record, std::string* out) {
  out->append("{\"id\":");
  out->append(std::to_string(record.id));
  out->append(",\"ok\":");
  out->append(record.ok ? "true" : "false");
  out->append(",\"cache_hit\":");
  out->append(record.cache_hit ? "true" : "false");
  out->append(",\"total_ms\":");
  out->append(obs::JsonNumber(static_cast<double>(record.TotalNanos()) * 1e-6));
  out->append(",\"stages_ms\":{");
  for (int s = 0; s < obs::kRequestStageCount; ++s) {
    if (s > 0) out->push_back(',');
    auto stage = static_cast<obs::RequestStage>(s);
    out->push_back('"');
    out->append(obs::RequestStageName(stage));
    out->append("\":");
    out->append(
        obs::JsonNumber(static_cast<double>(record.StageNanos(stage)) * 1e-6));
  }
  out->append("}}");
}

}  // namespace

std::string FormatStatszLine(uint64_t seq, const ServeTraceStats& stats) {
  std::string out;
  out.reserve(512 + (stats.recent.size() + stats.slowest.size()) * 192);
  out.append("{\"seq\":");
  out.append(std::to_string(seq));
  out.append(",\"ok\":true,\"statsz\":{");
  out.append("\"enabled\":");
  out.append(stats.enabled ? "true" : "false");
  out.append(",\"sample_every\":" + std::to_string(stats.sample_every));
  out.append(",\"admitted\":" + std::to_string(stats.admitted));
  out.append(",\"traced\":" + std::to_string(stats.traced));
  out.append(",\"traced_total_ms\":" + obs::JsonNumber(stats.traced_total_ms));
  out.append(",\"attributed_fraction\":" +
             obs::JsonNumber(stats.attributed_fraction));
  out.append(",\"stages\":[");
  for (size_t i = 0; i < stats.stages.size(); ++i) {
    const ServeTraceStats::StageStat& stage = stats.stages[i];
    if (i > 0) out.push_back(',');
    out.append("{\"stage\":\"");
    out.append(stage.stage);
    out.append("\",\"count\":" + std::to_string(stage.count));
    out.append(",\"total_ms\":" + obs::JsonNumber(stage.total_ms));
    out.append(",\"p50_ms\":" + obs::JsonNumber(stage.p50_ms));
    out.append(",\"p95_ms\":" + obs::JsonNumber(stage.p95_ms));
    out.append(",\"p99_ms\":" + obs::JsonNumber(stage.p99_ms));
    out.append(",\"exemplar_ids\":[");
    for (size_t e = 0; e < stage.exemplars.size(); ++e) {
      if (e > 0) out.push_back(',');
      out.append(std::to_string(stage.exemplars[e]));
    }
    out.append("]}");
  }
  out.append("],\"recent\":[");
  for (size_t i = 0; i < stats.recent.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendRecord(stats.recent[i], &out);
  }
  out.append("],\"slowest\":[");
  for (size_t i = 0; i < stats.slowest.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendRecord(stats.slowest[i], &out);
  }
  out.append("]}}");
  return out;
}

std::string FormatErrorLine(uint64_t seq, const std::string& error) {
  std::string out;
  out.append("{\"seq\":");
  out.append(std::to_string(seq));
  out.append(",\"ok\":false,\"error\":\"");
  obs::JsonEscape(error, &out);
  out.append("\"}");
  return out;
}

std::string FormatReloadLine(uint64_t seq, bool ok, uint64_t epoch,
                             const std::string& error) {
  if (!ok) return FormatErrorLine(seq, error);
  std::string out;
  out.append("{\"seq\":");
  out.append(std::to_string(seq));
  out.append(",\"ok\":true,\"epoch\":");
  out.append(std::to_string(epoch));
  out.push_back('}');
  return out;
}

}  // namespace sarn::serve
