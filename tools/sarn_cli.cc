// sarn — command-line interface to the library.
//
//   sarn generate --city CD --scale 0.05 --out network.csv
//   sarn train    --network network.csv [--epochs 40] [--dim 64]
//                 --weights model.ckpt --embeddings embeddings.csv
//                 (the weights file is read by snapshot save --checkpoint)
//   sarn export   --network network.csv --embeddings embeddings.csv
//                 --out atlas.geojson
//   sarn eval     --network network.csv --embeddings embeddings.csv
//                 [--task property|spd|traj|all]
//   sarn serve    --embeddings embeddings.csv | --snapshot model.sarnsnap
//                 [--network network.csv]
//                 (newline-delimited JSON queries on stdin, one reply line
//                 each on stdout in input order; serve/session.h runs the
//                 session, serve/protocol.h has the wire format)
//   sarn snapshot save --embeddings embeddings.csv | --checkpoint model.ckpt
//                      --out model.sarnsnap
//   sarn snapshot load --in model.sarnsnap
//   sarn import-osm --in extract.osm --out network.csv
//
// Every command binds its flags in a FlagSet (common/flags.h):
// `sarn <command> --help` prints the generated usage. Networks are stored
// in the roadnet CSV format; embeddings as a headerless CSV of n rows x d
// columns.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/sarn_model.h"
#include "core/variant_registry.h"
#include "geo/spatial_index.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/metrics_sink.h"
#include "obs/prom_export.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "roadnet/geojson.h"
#include "roadnet/io.h"
#include "roadnet/osm_import.h"
#include "roadnet/synthetic_city.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "snapshot/snapshot.h"
#include "tasks/embedding_source.h"
#include "tensor/simd/simd.h"
#include "tasks/road_property_task.h"
#include "tasks/spd_task.h"
#include "tasks/traj_similarity_task.h"
#include "tensor/pca.h"
#include "traj/map_matching.h"
#include "traj/trajectory_generator.h"

namespace sarn::cli {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "sarn: %s\n", message.c_str());
  return 1;
}

std::optional<tasks::IndexMetric> ParseMetric(const std::string& name) {
  if (name == "cosine") return tasks::IndexMetric::kCosine;
  if (name == "l1") return tasks::IndexMetric::kL1;
  return std::nullopt;
}

bool SaveEmbeddingsCsv(const tensor::Tensor& embeddings, const std::string& path) {
  CsvTable table;
  for (int64_t i = 0; i < embeddings.shape()[0]; ++i) {
    std::vector<std::string> row;
    for (int64_t j = 0; j < embeddings.shape()[1]; ++j) {
      row.push_back(FormatDouble(embeddings.at(i, j), 6));
    }
    table.rows.push_back(std::move(row));
  }
  return WriteCsvFile(path, table);
}

// Embeddings CSV reads go through SarnModel::LoadEmbeddingsCsv (typed
// errors); this wrapper keeps the optional-shaped call sites readable.
std::optional<tensor::Tensor> LoadEmbeddingsCsv(const std::string& path) {
  core::ModelLoadResult result = core::SarnModel::LoadEmbeddingsCsv(path);
  if (!result.ok()) {
    SARN_LOG(Warning) << "[" << core::ModelLoadErrorName(result.error) << "] "
                      << result.message;
    return std::nullopt;
  }
  return result.embeddings;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

// The variant-plane flags (DESIGN.md §16), shared by `train` and
// `snapshot save --checkpoint` (the latter must recompose the checkpoint's
// variant to restore it). Names are validated against the registry so the
// error message — like the --help text — always lists exactly the set this
// binary registered.
struct VariantArgs {
  std::string encoder;
  std::string augmentation;
  std::string negatives;

  void Bind(FlagSet& flags) {
    const core::VariantRegistry& registry = core::VariantRegistry::Instance();
    flags.String("encoder", &encoder,
                 "graph encoder variant: " + JoinNames(registry.EncoderNames()) +
                     " (default gat)")
        .String("augmentation", &augmentation,
                "graph-view augmentation variant: " +
                    JoinNames(registry.AugmentationNames()) +
                    " (default spatial-importance)")
        .String("negatives", &negatives,
                "negative-sampling/loss variant: " +
                    JoinNames(registry.SamplerNames()) + " (default spatial)");
  }

  /// Writes the non-empty names into `config`; returns an error string for
  /// unknown names, listing the registered set, or for a --dim (already in
  /// config.hidden_dim) the resolved encoder cannot be built with.
  std::optional<std::string> Apply(core::SarnConfig& config) const {
    const core::VariantRegistry& registry = core::VariantRegistry::Instance();
    if (!encoder.empty()) {
      if (!registry.HasEncoder(encoder)) {
        return "unknown --encoder \"" + encoder +
               "\" (registered: " + JoinNames(registry.EncoderNames()) + ")";
      }
      config.encoder = encoder;
    }
    if (!augmentation.empty()) {
      if (!registry.HasAugmentation(augmentation)) {
        return "unknown --augmentation \"" + augmentation +
               "\" (registered: " + JoinNames(registry.AugmentationNames()) + ")";
      }
      config.augmentation = augmentation;
    }
    if (!negatives.empty()) {
      if (!registry.HasSampler(negatives)) {
        return "unknown --negatives \"" + negatives +
               "\" (registered: " + JoinNames(registry.SamplerNames()) + ")";
      }
      config.negatives = negatives;
    }
    if (core::ResolvedVariantTag(config).encoder == "gat" &&
        config.hidden_dim % config.gat_heads != 0) {
      return "--dim " + std::to_string(config.hidden_dim) +
             " must be divisible by the gat encoder's " +
             std::to_string(config.gat_heads) + " attention heads";
    }
    return std::nullopt;
  }
};

// Each command owns one Args struct: the fields are the flag targets, and
// Bind() is the single place a flag's name, default and help live.

struct GenerateArgs {
  std::string city = "CD";
  double scale = 0.05;
  std::string out;
  void Bind(FlagSet& flags) {
    flags.String("city", &city, "city template: CD, BJ or SF")
        .Double("scale", &scale, "fraction of the full city to generate")
        .String("out", &out, "output network CSV", /*required=*/true);
  }
};

int CmdGenerate(const GenerateArgs& args) {
  roadnet::RoadNetwork network = roadnet::GenerateSyntheticCity(
      roadnet::CityConfigByName(args.city, args.scale));
  if (!roadnet::SaveRoadNetworkCsv(network, args.out)) {
    return Fail("generate: cannot write " + args.out);
  }
  std::printf("generated %s-like network: %lld segments -> %s\n", args.city.c_str(),
              static_cast<long long>(network.num_segments()), args.out.c_str());
  return 0;
}

struct ImportOsmArgs {
  std::string in;
  std::string out;
  void Bind(FlagSet& flags) {
    flags.String("in", &in, "OSM XML file", /*required=*/true)
        .String("out", &out, "output network CSV", /*required=*/true);
  }
};

int CmdImportOsm(const ImportOsmArgs& args) {
  roadnet::OsmImportStats stats;
  auto network = roadnet::LoadOsmFile(args.in, &stats);
  if (!network.has_value()) return Fail("import-osm: cannot parse " + args.in);
  if (!roadnet::SaveRoadNetworkCsv(*network, args.out)) {
    return Fail("import-osm: cannot write " + args.out);
  }
  std::printf("imported %lld nodes, kept %lld/%lld ways, %lld segments -> %s\n",
              static_cast<long long>(stats.nodes_parsed),
              static_cast<long long>(stats.ways_kept),
              static_cast<long long>(stats.ways_parsed),
              static_cast<long long>(stats.segments_created), args.out.c_str());
  return 0;
}

struct TrainArgs {
  std::string network;
  int epochs = 40;
  int64_t dim = 64;
  int64_t seed = 42;
  std::string weights;
  std::string embeddings;
  core::TrainOptions options;  // checkpoint-dir / -every / keep-last / stop-after.
  VariantArgs variant;         // --encoder / --augmentation / --negatives.
  std::string metrics_file;
  std::string trace_file;
  void Bind(FlagSet& flags) {
    flags.String("network", &network, "network CSV", /*required=*/true)
        .Int("epochs", &epochs, "training epochs")
        .Int("dim", &dim, "embedding dimension")
        .Int("seed", &seed, "RNG seed");
    variant.Bind(flags);
    flags.String("weights", &weights,
                 "write model weights here (read by snapshot save --checkpoint)")
        .String("embeddings", &embeddings, "write embeddings CSV here")
        .String("checkpoint-dir", &options.checkpoint_dir,
                "rolling checkpoint directory")
        .Int("checkpoint-every", &options.checkpoint_every,
             "checkpoint every N epochs")
        .Int("keep-last", &options.keep_last, "checkpoints to keep")
        .Int("stop-after", &options.max_epochs,
             "stop once this many total epochs are done")
        .String("metrics-file", &metrics_file, "append one JSON line per epoch here")
        .String("trace-file", &trace_file, "write a Chrome trace of training phases");
  }
};

// Everything train writes after its last epoch, checked before its first:
// a bad output flag must not cost a whole training run.
std::optional<std::string> CheckTrainOutputs(const TrainArgs& args) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const std::string& dir = args.options.checkpoint_dir;
  if (!dir.empty()) {
    fs::create_directories(dir, ec);
    if (!fs::is_directory(dir, ec)) {
      return "--checkpoint-dir " + dir + " is not a directory and cannot be created";
    }
  }
  const std::pair<const char*, const std::string*> files[] = {
      {"--weights", &args.weights},
      {"--embeddings", &args.embeddings},
      {"--trace-file", &args.trace_file}};
  for (const auto& [flag, path] : files) {
    if (path->empty()) continue;
    if (fs::is_directory(*path, ec)) {
      return std::string(flag) + " " + *path + " is a directory";
    }
    const fs::path parent = fs::path(*path).parent_path();
    if (!parent.empty() && !fs::is_directory(parent, ec)) {
      return std::string(flag) + " " + *path + ": directory " + parent.string() +
             " does not exist";
    }
  }
  return std::nullopt;
}

int CmdTrain(const TrainArgs& args) {
  if (args.epochs < 1) return Fail("train: --epochs must be at least 1");
  if (args.dim < 1) return Fail("train: --dim must be at least 1");
  if (auto error = CheckTrainOutputs(args)) return Fail("train: " + *error);
  auto network = roadnet::LoadRoadNetworkCsv(args.network);
  if (!network.has_value()) return Fail("train: cannot load " + args.network);

  core::SarnConfig config;
  config.max_epochs = args.epochs;
  int64_t dim = args.dim;
  config.embedding_dim = dim;
  config.hidden_dim = dim;
  config.projection_dim = std::max<int64_t>(8, dim / 2);
  config.seed = static_cast<uint64_t>(args.seed);
  if (auto error = args.variant.Apply(config)) return Fail("train: " + *error);
  core::FitCellSideToNetwork(config, *network);

  core::TrainOptions options = args.options;

  std::unique_ptr<obs::JsonlMetricsSink> sink;
  if (!args.metrics_file.empty()) {
    sink = std::make_unique<obs::JsonlMetricsSink>(args.metrics_file);
    if (!sink->ok()) return Fail("train: cannot open " + args.metrics_file);
    options.metrics_sink = sink.get();
  }
  if (!args.trace_file.empty()) obs::Tracer::Instance().SetEnabled(true);

  core::SarnModel model(*network, config);
  std::printf("training SARN on %lld segments (d=%lld, epochs=%d, %s)...\n",
              static_cast<long long>(network->num_segments()),
              static_cast<long long>(dim), config.max_epochs,
              core::VariantTagString(model.variant_tag()).c_str());
  core::TrainStats stats = model.Train(options);
  if (!args.trace_file.empty()) {
    std::vector<obs::TraceEvent> events = obs::Tracer::Instance().Drain();
    obs::Tracer::Instance().SetEnabled(false);
    // A resumed run merges its spans into the prior lifetime's trace so one
    // file shows the whole (killed + resumed) training timeline; a fresh run
    // starts the file over.
    const bool merged = stats.resumed_from_epoch > 0
                            ? obs::Tracer::AppendChromeTrace(args.trace_file, events)
                            : obs::Tracer::WriteChromeTrace(args.trace_file, events);
    if (!merged) {
      return Fail("train: cannot write " + args.trace_file);
    }
    std::printf("trace -> %s (%zu events; load in chrome://tracing)\n",
                args.trace_file.c_str(), events.size());
    for (const auto& phase : obs::Tracer::Aggregate(events)) {
      std::printf("  %-24s %8llu spans  %8.3fs\n", phase.name.c_str(),
                  static_cast<unsigned long long>(phase.count), phase.seconds);
    }
  }
  if (sink != nullptr) {
    std::printf("metrics -> %s\n", args.metrics_file.c_str());
  }
  if (stats.aborted) {
    return Fail("train: aborted (" + stats.abort_reason +
                "); last checkpoint is the restart point");
  }
  if (stats.resumed_from_epoch > 0) {
    std::printf("resumed from checkpoint at epoch %d\n", stats.resumed_from_epoch);
  }
  std::printf("done: %d epochs, loss %.4f, %.1fs\n", stats.epochs_run, stats.final_loss,
              stats.seconds);

  if (!args.weights.empty()) {
    snapshot::SnapshotStatus status = model.SaveWeights(args.weights);
    if (!status.ok()) {
      return Fail("train: cannot write --weights: " + status.message);
    }
    std::printf("weights -> %s\n", args.weights.c_str());
  }
  if (!args.embeddings.empty()) {
    if (!SaveEmbeddingsCsv(model.Embeddings(), args.embeddings)) {
      return Fail("train: cannot write " + args.embeddings);
    }
    std::printf("embeddings -> %s\n", args.embeddings.c_str());
  }
  return 0;
}

struct ExportArgs {
  std::string network;
  std::string embeddings;
  std::string out = "atlas.geojson";
  void Bind(FlagSet& flags) {
    flags.String("network", &network, "network CSV", /*required=*/true)
        .String("embeddings", &embeddings, "embeddings CSV", /*required=*/true)
        .String("out", &out, "output GeoJSON");
  }
};

int CmdExport(const ExportArgs& args) {
  auto network = roadnet::LoadRoadNetworkCsv(args.network);
  if (!network.has_value()) return Fail("export: cannot load --network");
  auto embeddings = LoadEmbeddingsCsv(args.embeddings);
  if (!embeddings.has_value()) return Fail("export: cannot load --embeddings");
  if (embeddings->shape()[0] != network->num_segments()) {
    return Fail("export: embeddings row count != segment count");
  }
  tensor::PcaResult pca = tensor::Pca(*embeddings, 1);
  roadnet::GeoJsonOptions options;
  for (int64_t i = 0; i < network->num_segments(); ++i) {
    options.values.push_back(pca.projections.at(i, 0));
  }
  if (!ExportGeoJson(*network, args.out, options)) {
    return Fail("export: cannot write " + args.out);
  }
  std::printf("wrote %s (colored by first principal component)\n", args.out.c_str());
  return 0;
}

struct EvalArgs {
  std::string network;
  std::string embeddings;
  std::string task = "all";
  void Bind(FlagSet& flags) {
    flags.String("network", &network, "network CSV", /*required=*/true)
        .String("embeddings", &embeddings, "embeddings CSV", /*required=*/true)
        .String("task", &task, "property, spd, traj or all");
  }
};

int CmdEval(const EvalArgs& args) {
  auto network = roadnet::LoadRoadNetworkCsv(args.network);
  if (!network.has_value()) return Fail("eval: cannot load --network");
  auto embeddings = LoadEmbeddingsCsv(args.embeddings);
  if (!embeddings.has_value()) return Fail("eval: cannot load --embeddings");
  if (embeddings->shape()[0] != network->num_segments()) {
    return Fail("eval: embeddings row count != segment count");
  }
  tasks::FrozenEmbeddingSource source(*embeddings);

  if (args.task == "property" || args.task == "all") {
    tasks::RoadPropertyTask task(*network, {});
    tasks::RoadPropertyResult r = task.Evaluate(source);
    std::printf("road property:   F1 %.2f%%  AUC %.2f%%  (%lld labeled, %lld classes)\n",
                100.0 * r.f1, 100.0 * r.auc, static_cast<long long>(r.num_labeled),
                static_cast<long long>(r.num_classes));
  }
  if (args.task == "spd" || args.task == "all") {
    tasks::SpdTask task(*network, {});
    tasks::SpdResult r = task.Evaluate(source);
    std::printf("shortest path:   MRE %.2f%%  MAE %.0f m  (%lld pairs)\n", 100.0 * r.mre,
                r.mae_meters, static_cast<long long>(r.num_test_pairs));
  }
  if (args.task == "traj" || args.task == "all") {
    traj::TrajectoryGeneratorConfig generator_config;
    generator_config.min_route_segments = 8;
    traj::TrajectoryGenerator generator(*network, generator_config);
    traj::MapMatcher matcher(*network);
    std::vector<traj::MatchedTrajectory> matched;
    for (const auto& trip : generator.Generate(200)) {
      traj::MatchedTrajectory m = matcher.Match(trip.gps);
      if (m.segments.size() >= 2) matched.push_back(traj::TruncateSegments(m, 60));
    }
    tasks::TrajectorySimilarityTask task(*network, matched, {});
    tasks::TrajSimResult r = task.Evaluate(source);
    std::printf("trajectory sim:  HR@5 %.1f%%  HR@20 %.1f%%  R5@20 %.1f%%\n",
                100.0 * r.hr5, 100.0 * r.hr20, 100.0 * r.r5_20);
  }
  return 0;
}

// Validates telemetry artifacts: a whole-file JSON value (Chrome trace) or,
// with --lines true, one JSON value per non-empty line (metrics JSONL).
struct CheckJsonArgs {
  std::string in;
  bool lines = false;
  void Bind(FlagSet& flags) {
    flags.String("in", &in, "file to validate", /*required=*/true)
        .Bool("lines", &lines, "validate as JSON lines instead of one document");
  }
};

int CmdCheckJson(const CheckJsonArgs& args) {
  std::ifstream file(args.in, std::ios::binary);
  if (!file.is_open()) return Fail("check-json: cannot open " + args.in);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();
  std::string error;
  bool valid = args.lines ? obs::JsonLinesValid(text, &error)
                          : obs::JsonValid(text, &error);
  if (!valid) return Fail("check-json: " + args.in + ": " + error);
  std::printf("%s: valid %s (%zu bytes)\n", args.in.c_str(),
              args.lines ? "JSON lines" : "JSON", text.size());
  return 0;
}

// Locator grid cell side matched to the mean segment spacing so Nearest()
// probes O(1) cells. Also persisted into snapshots so a loaded locator is
// built exactly as the live one was.
double LocatorCellSideMeters(const std::vector<geo::LatLng>& midpoints) {
  geo::BoundingBox box = geo::BoundingBox::Empty();
  for (const geo::LatLng& p : midpoints) box.Extend(p);
  double area = box.WidthMeters() * box.HeightMeters();
  double spacing = midpoints.empty()
                       ? 100.0
                       : std::sqrt(area / static_cast<double>(midpoints.size()));
  return std::min(2000.0, std::max(25.0, spacing));
}

// Nearest-segment locator over the network's midpoints.
std::shared_ptr<const geo::SpatialIndex> BuildLocator(
    const roadnet::RoadNetwork& network) {
  std::vector<geo::LatLng> midpoints = network.Midpoints();
  double cell = LocatorCellSideMeters(midpoints);
  return std::make_shared<geo::SpatialIndex>(std::move(midpoints), cell);
}

// Serialises embeddings (from a CSV or a training checkpoint) plus the
// prepared index payloads into one mmap-able snapshot file (src/snapshot/).
struct SnapshotSaveArgs {
  std::string out;
  std::string embeddings;
  std::string checkpoint;
  std::string network;
  int64_t dim = 64;
  VariantArgs variant;  // Must match the checkpoint's variant tag.
  std::string metric = "cosine";
  std::string precision = "both";
  bool include_model = true;
  void Bind(FlagSet& flags) {
    flags.String("out", &out, "output snapshot file (.sarnsnap)", /*required=*/true)
        .String("embeddings", &embeddings, "embeddings CSV to snapshot")
        .String("checkpoint", &checkpoint,
                "weights file (train --weights) or training checkpoint to "
                "export instead")
        .String("network", &network,
                "network CSV; embeds the serve locator (required with "
                "--checkpoint)")
        .Int("dim", &dim, "embedding dimension (--checkpoint only)");
    variant.Bind(flags);
    flags.String("metric", &metric, "similarity metric: cosine or l1")
        .String("precision", &precision, "index payloads: float32, int8 or both")
        .Bool("include-model", &include_model,
              "embed the raw [n, d] embedding matrix alongside the index");
  }
};

int CmdSnapshotSave(const SnapshotSaveArgs& args) {
  auto metric = ParseMetric(args.metric);
  if (!metric.has_value()) {
    return Fail("snapshot save: --metric must be cosine or l1");
  }
  if (args.embeddings.empty() == args.checkpoint.empty()) {
    return Fail("snapshot save: pass exactly one of --embeddings or --checkpoint");
  }

  std::optional<roadnet::RoadNetwork> network;
  if (!args.network.empty()) {
    network = roadnet::LoadRoadNetworkCsv(args.network);
    if (!network.has_value()) {
      return Fail("snapshot save: cannot load " + args.network);
    }
  }

  // The checkpoint branch rebuilds the architecture, restores the online
  // encoder and exports Embeddings().
  core::ModelLoadResult loaded;
  if (!args.embeddings.empty()) {
    loaded = core::SarnModel::LoadEmbeddingsCsv(args.embeddings);
  } else {
    if (!network.has_value()) {
      return Fail("snapshot save: --checkpoint needs --network (the graph the "
                  "encoder runs on)");
    }
    core::SarnConfig config;
    config.embedding_dim = args.dim;
    config.hidden_dim = args.dim;
    config.projection_dim = std::max<int64_t>(8, args.dim / 2);
    if (auto error = args.variant.Apply(config)) {
      return Fail("snapshot save: " + *error);
    }
    core::FitCellSideToNetwork(config, *network);
    loaded = core::SarnModel::LoadCheckpointEmbeddings(args.checkpoint, *network, config);
  }
  if (!loaded.ok()) {
    return Fail(std::string("snapshot save: [") +
                core::ModelLoadErrorName(loaded.error) + "] " + loaded.message);
  }
  std::optional<tensor::Tensor> embeddings = loaded.embeddings;
  if (network.has_value() &&
      network->num_segments() != embeddings->shape()[0]) {
    return Fail("snapshot save: embeddings row count != segment count");
  }

  const bool want_float = args.precision == "both" || args.precision == "float32";
  const bool want_int8 = args.precision == "both" || args.precision == "int8";
  if (!want_float && !want_int8) {
    return Fail("snapshot save: --precision must be float32, int8 or both");
  }
  std::optional<tasks::EmbeddingIndex> float_index;
  std::optional<tasks::EmbeddingIndex> int8_index;
  if (want_float) {
    float_index.emplace(*embeddings, *metric, tasks::IndexPrecision::kFloat32);
  }
  if (want_int8) {
    int8_index.emplace(*embeddings, *metric, tasks::IndexPrecision::kInt8);
  }

  snapshot::SnapshotContents contents;
  contents.n = embeddings->shape()[0];
  contents.d = embeddings->shape()[1];
  contents.metric = *metric;
  if (args.include_model) contents.model_embeddings = &*embeddings;
  if (float_index.has_value()) contents.float_index = &*float_index;
  if (int8_index.has_value()) contents.int8_index = &*int8_index;
  std::vector<geo::LatLng> midpoints;
  if (network.has_value()) {
    midpoints = network->Midpoints();
    contents.midpoints = &midpoints;
    contents.locator_cell_side_meters = LocatorCellSideMeters(midpoints);
  }

  snapshot::SnapshotStatus status = snapshot::SaveServingSnapshot(args.out, contents);
  if (!status.ok()) return Fail("snapshot save: " + status.message);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(args.out, ec);
  std::printf("snapshot -> %s (%lld rows x %lld dims, %s, %s%s%s, %llu bytes)\n",
              args.out.c_str(), static_cast<long long>(contents.n),
              static_cast<long long>(contents.d),
              args.metric.c_str(),
              want_float ? "float32" : "", want_float && want_int8 ? "+" : "",
              want_int8 ? "int8" : "",
              static_cast<unsigned long long>(ec ? 0 : bytes));
  return 0;
}

// Maps a snapshot, prints its layout and load metrics, and optionally runs
// one query — the smoke-test half of the snapshot round trip.
struct SnapshotLoadArgs {
  std::string in;
  bool quantized = false;
  bool verify_crc = true;
  int64_t query_id = -1;
  int k = 10;
  void Bind(FlagSet& flags) {
    flags.String("in", &in, "snapshot file to map", /*required=*/true)
        .Bool("quantized", &quantized, "adopt the int8 payload instead of float32")
        .Bool("verify-crc", &verify_crc, "verify section payload CRCs while mapping")
        .Int("query-id", &query_id, "run one top-k query for this row (-1 = off)")
        .Int("k", &k, "neighbors for --query-id");
  }
};

int CmdSnapshotLoad(const SnapshotLoadArgs& args) {
  const tasks::IndexPrecision precision = args.quantized
                                              ? tasks::IndexPrecision::kInt8
                                              : tasks::IndexPrecision::kFloat32;
  snapshot::MappedSnapshot::Options options;
  options.verify_payload_crc = args.verify_crc;
  snapshot::LoadedSnapshot loaded;
  snapshot::SnapshotStatus status =
      snapshot::LoadServingSnapshot(args.in, precision, &loaded, options);
  if (!status.ok()) {
    return Fail(std::string("snapshot load: [") +
                snapshot::SnapshotErrorName(status.error) + "] " +
                status.message);
  }
  std::printf("%s: v%u.%u, %lld rows x %lld dims, %s, %zu bytes "
              "(%zu mapped zero-copy, %zu copied), %.3f ms\n",
              args.in.c_str(), loaded.mapping->version_major(),
              loaded.mapping->version_minor(),
              static_cast<long long>(loaded.meta.n),
              static_cast<long long>(loaded.meta.d),
              loaded.meta.metric == tasks::IndexMetric::kCosine ? "cosine" : "l1",
              loaded.mapping->file_bytes(), loaded.mapped_bytes,
              loaded.copied_bytes, loaded.load_ms);
  for (const auto& section : loaded.mapping->sections()) {
    std::printf("  %-20s %10zu bytes\n", std::string(section.name).c_str(),
                section.bytes);
  }
  if (args.query_id >= 0) {
    for (const tasks::Neighbor& neighbor :
         loaded.index->QueryById(args.query_id, args.k)) {
      std::printf("  neighbor %lld score %.6f\n",
                  static_cast<long long>(neighbor.id), neighbor.score);
    }
  }
  return 0;
}

/// Background Prometheus exporter for `sarn serve --prom-file`: atomically
/// rewrites the file (tmp + rename) from a registry snapshot every interval,
/// and once more on shutdown so the final state is always published.
class PeriodicPromWriter {
 public:
  PeriodicPromWriter(std::string path, double interval_ms)
      : path_(std::move(path)), interval_ms_(interval_ms) {
    thread_ = std::thread([this] { Run(); });
  }

  ~PeriodicPromWriter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Write();  // Final state, after workers have drained.
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock,
                   std::chrono::duration<double, std::milli>(interval_ms_),
                   [this] { return stop_; });
      if (stop_) return;
      lock.unlock();
      Write();
      lock.lock();
    }
  }

  void Write() {
    if (!obs::WritePromFile(obs::MetricsRegistry::Default().Snapshot(), path_)) {
      SARN_LOG(Error) << "cannot write prometheus file " << path_;
    }
  }

  std::string path_;
  double interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct ServeArgs {
  std::string embeddings;
  std::string snapshot;
  std::string network;
  std::string metric = "cosine";
  // threads / batch-size / batch-window-ms targets. The CLI default (2
  // workers) intentionally differs from the library default (1).
  serve::ServeOptions options = {.threads = 2};
  // Signed, so a negative value is refused rather than wrapped to size_t.
  int64_t cache_capacity =
      static_cast<int64_t>(serve::ServeOptions{}.cache_capacity);
  int k = 10;
  bool quantized = false;
  int trace_sample = 16;
  std::string prom_file;
  double prom_interval_ms = 1000.0;
  double slo_p99_ms = 0.0;
  double slo_window_s = 10.0;
  std::string metrics_file;
  void Bind(FlagSet& flags) {
    flags.String("embeddings", &embeddings, "embeddings CSV to serve")
        .String("snapshot", &snapshot,
                "mmap snapshot to serve instead of --embeddings (zero-copy "
                "cold start)")
        .String("network", &network,
                "network CSV enabling lat/lng queries (nearest segment)")
        .String("metric", &metric, "similarity metric: cosine or l1")
        .Int("threads", &options.threads, "serve worker threads (0 = synchronous)")
        .Int("k", &k, "default top-k when a query omits \"k\"")
        .Int("batch-size", &options.max_batch,
             "flush a micro-batch at this many requests")
        .Double("batch-window-ms", &options.batch_window_ms,
                "flush when the oldest waits this long")
        .Int("cache-capacity", &cache_capacity,
             "LRU result-cache entries (0 = off)")
        .Bool("quantized", &quantized,
              "serve an int8 quantized index (~4x smaller, recall@10 >= 0.99)")
        .Int("trace-sample", &trace_sample,
             "trace every Nth request's per-stage timeline (1 = all, 0 = off)")
        .String("prom-file", &prom_file,
                "periodically write Prometheus text exposition here")
        .Double("prom-interval-ms", &prom_interval_ms, "--prom-file rewrite period")
        .Double("slo-p99-ms", &slo_p99_ms,
                "p99 latency budget; breaches emit slo events (0 = off)")
        .Double("slo-window-s", &slo_window_s, "sliding window for the SLO watchdog")
        .String("metrics-file", &metrics_file,
                "append SLO burn events as JSON lines here");
  }
};

// The NDJSON session itself (request parsing, reply order, reload) is
// serve::RunSession; this sets it up over stdin/stdout.
int CmdServe(const ServeArgs& args) {
  if (args.embeddings.empty() == args.snapshot.empty()) {
    return Fail("serve: pass exactly one of --embeddings or --snapshot");
  }
  if (!args.snapshot.empty() && !args.snapshot.ends_with(".sarnsnap")) {
    return Fail("serve: --snapshot must name a .sarnsnap file");
  }
  auto parsed_metric = ParseMetric(args.metric);
  if (!parsed_metric.has_value()) {
    return Fail("serve: --metric must be cosine or l1");
  }
  serve::ServeOptions options = args.options;
  if (options.threads < 0 || options.max_batch <= 0) {
    return Fail("serve: --threads must be >= 0 and --batch-size >= 1");
  }
  if (!std::isfinite(options.batch_window_ms) || options.batch_window_ms < 0.0) {
    return Fail("serve: --batch-window-ms must be a finite number >= 0");
  }
  if (args.cache_capacity < 0) return Fail("serve: --cache-capacity must be >= 0");
  if (args.k < 0) return Fail("serve: --k must be >= 0");
  if (args.trace_sample < 0) {
    return Fail("serve: --trace-sample must be >= 0 (0 disables tracing)");
  }
  options.cache_capacity = static_cast<size_t>(args.cache_capacity);
  options.trace_sample_every = static_cast<uint32_t>(args.trace_sample);

  serve::SessionOptions session;
  session.default_k = args.k;
  session.metric = *parsed_metric;
  session.precision = args.quantized ? tasks::IndexPrecision::kInt8
                                     : tasks::IndexPrecision::kFloat32;
  const std::string& path = args.snapshot.empty() ? args.embeddings : args.snapshot;
  serve::IndexFile loaded = serve::LoadIndexFile(path, session.metric, session.precision);
  if (loaded.index == nullptr) return Fail("serve: " + loaded.error);
  const tasks::EmbeddingIndex& index = *loaded.index;
  session.dim = index.dim();
  if (!args.network.empty()) {
    auto network = roadnet::LoadRoadNetworkCsv(args.network);
    if (!network.has_value()) return Fail("serve: cannot load " + args.network);
    if (network->num_segments() != index.size()) {
      return Fail("serve: embeddings row count != segment count");
    }
    loaded.locator = BuildLocator(*network);
  }

  // SLO burn events go to the JSONL metrics stream when one is configured.
  std::unique_ptr<obs::JsonlMetricsSink> metrics_sink;
  if (!args.metrics_file.empty()) {
    metrics_sink = std::make_unique<obs::JsonlMetricsSink>(args.metrics_file);
    if (!metrics_sink->ok()) return Fail("serve: cannot open " + args.metrics_file);
  }
  std::unique_ptr<obs::SloWatchdog> watchdog;
  if (args.slo_p99_ms > 0.0) {
    obs::SloWatchdog::Options slo;
    slo.budget_p99_ms = args.slo_p99_ms;
    slo.window_seconds = args.slo_window_s;
    if (slo.window_seconds <= 0.0) {
      return Fail("serve: --slo-window-s must be > 0");
    }
    slo.tick_seconds = std::min(1.0, slo.window_seconds / 4.0);
    watchdog = std::make_unique<obs::SloWatchdog>(slo, metrics_sink.get());
  }
  std::unique_ptr<PeriodicPromWriter> prom_writer;
  if (!args.prom_file.empty()) {
    if (args.prom_interval_ms <= 0.0) {
      return Fail("serve: --prom-interval-ms must be > 0");
    }
    prom_writer =
        std::make_unique<PeriodicPromWriter>(args.prom_file, args.prom_interval_ms);
  }

  std::fprintf(stderr,
               "serve: %s: %lld rows x %lld dims (%s, %s, %zu bytes, %s kernels), "
               "%d threads, batch %d/%.1fms, cache %zu — reading NDJSON from stdin\n",
               path.c_str(), static_cast<long long>(index.size()),
               static_cast<long long>(index.dim()), args.metric.c_str(),
               tasks::PrecisionName(index.precision()), index.index_bytes(),
               tensor::simd::TierName(tensor::simd::ActiveTier()),
               options.threads, options.max_batch, options.batch_window_ms,
               options.cache_capacity);
  // The engine holds the only reference, so a reload can retire the index.
  serve::QueryEngine engine(std::move(loaded.index), loaded.locator, options);
  // Replies are the only stdout traffic: unsynced streams read and write it
  // in blocks rather than through stdio a character at a time.
  std::ios::sync_with_stdio(false);
  serve::RunSession(std::cin, std::cout, engine, session);
  serve::ServeStats stats = engine.Stats();
  std::fprintf(stderr,
               "serve: %llu requests (%llu errors), %llu batches, cache %llu/%llu "
               "hit/miss, p50 %.3fms p99 %.3fms\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_misses),
               stats.latency_p50_ms, stats.latency_p99_ms);
  return 0;
}

struct MetricsExportArgs {
  std::string out;
  std::string snapshot;
  bool quantized = false;
  void Bind(FlagSet& flags) {
    flags.String("out", &out, "write here instead of stdout")
        .String("snapshot", &snapshot,
                "load this .sarnsnap first so sarn.snapshot.* metrics are "
                "populated")
        .Bool("quantized", &quantized, "adopt the int8 payload of --snapshot");
  }
};

int CmdMetricsExport(const MetricsExportArgs& args) {
  if (!args.snapshot.empty()) {
    // Loading populates sarn.snapshot.* (loads, bytes, mapped/copied split),
    // which makes the export meaningful for a fresh process.
    const tasks::IndexPrecision precision = args.quantized
                                                ? tasks::IndexPrecision::kInt8
                                                : tasks::IndexPrecision::kFloat32;
    snapshot::LoadedSnapshot loaded;
    snapshot::SnapshotStatus status =
        snapshot::LoadServingSnapshot(args.snapshot, precision, &loaded);
    if (!status.ok()) {
      return Fail(std::string("metrics-export: [") +
                  snapshot::SnapshotErrorName(status.error) + "] " +
                  status.message);
    }
  }
  const std::string text =
      obs::PrometheusText(obs::MetricsRegistry::Default().Snapshot());
  if (args.out.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (!obs::WritePromFile(obs::MetricsRegistry::Default().Snapshot(), args.out)) {
    return Fail("metrics-export: cannot write " + args.out);
  }
  std::printf("metrics -> %s\n", args.out.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Command registry: one FlagSet per command, bound to its Args struct.

struct Command {
  const char* name;
  const char* summary;
  int (*main)(FlagSet& flags, int argc, char** argv, int first_flag);
};

// Parses argv into the bound fields plus the global --log-level. Returns the
// exit code when the command must not run (bad flags, --help), else nullopt.
std::optional<int> ParseFlags(FlagSet& flags, int argc, char** argv, int first_flag) {
  std::string log_level;
  flags.String("log-level", &log_level, "debug, info, warning or error");
  std::string error;
  if (!flags.Parse(argc, argv, first_flag, &error)) return Fail(error);
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }
  if (!log_level.empty()) {
    std::optional<LogLevel> level = ParseLogLevel(log_level);
    if (!level.has_value()) return Fail("unknown --log-level " + log_level);
    SetLogLevel(*level);
  }
  return std::nullopt;
}

/// Table glue: bind one Args (its field initialisers are the defaults the
/// usage text shows), parse into it and run the command.
template <typename Args, int (*Run)(const Args&)>
constexpr Command MakeCommand(const char* name, const char* summary) {
  return {name, summary, [](FlagSet& flags, int argc, char** argv, int first_flag) {
            Args args;
            args.Bind(flags);
            if (std::optional<int> exit = ParseFlags(flags, argc, argv, first_flag)) {
              return *exit;
            }
            return Run(args);
          }};
}

const Command kCommands[] = {
    MakeCommand<GenerateArgs, CmdGenerate>(
        "generate", "synthesise a city-like road network"),
    MakeCommand<ImportOsmArgs, CmdImportOsm>(
        "import-osm", "convert an OSM XML extract to the network CSV format"),
    MakeCommand<TrainArgs, CmdTrain>("train", "train SARN embeddings on a network"),
    MakeCommand<ExportArgs, CmdExport>(
        "export", "color a network GeoJSON by the embeddings' first PC"),
    MakeCommand<EvalArgs, CmdEval>(
        "eval", "evaluate embeddings on the paper's downstream tasks"),
    MakeCommand<CheckJsonArgs, CmdCheckJson>(
        "check-json", "validate a JSON / JSONL telemetry artifact"),
    MakeCommand<SnapshotSaveArgs, CmdSnapshotSave>(
        "snapshot save",
        "serialise embeddings + index payloads into one mmap-able file"),
    MakeCommand<SnapshotLoadArgs, CmdSnapshotLoad>(
        "snapshot load", "map a snapshot, print its layout and optionally query it"),
    MakeCommand<ServeArgs, CmdServe>(
        "serve", "serve batched top-k embedding queries over stdin/stdout NDJSON"),
    MakeCommand<MetricsExportArgs, CmdMetricsExport>(
        "metrics-export", "dump the process metrics registry as Prometheus text"),
};

int Usage() {
  std::printf("usage: sarn <command> [--flag value ...]\n");
  for (const Command& command : kCommands) {
    std::printf("  %-10s %s\n", command.name, command.summary);
  }
  std::printf(
      "run 'sarn <command> --help' for that command's flags\n"
      "global: --log-level debug|info|warning|error  (overrides SARN_LOG_LEVEL)\n");
  return 2;
}

int Main(int argc, char** argv) {
  InitLogLevelFromEnv();
  if (argc < 2) return Usage();
  std::string name = argv[1];
  if (name == "--help" || name == "-h" || name == "help") {
    Usage();
    return 0;
  }
  // Two-word commands ("snapshot save"): join the subcommand, flags follow.
  int first_flag = 2;
  if (name == "snapshot" && argc >= 3 && argv[2][0] != '-') {
    name += std::string(" ") + argv[2];
    first_flag = 3;
  }
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    FlagSet flags(command.name, command.summary);
    return command.main(flags, argc, argv, first_flag);
  }
  return Usage();
}

}  // namespace
}  // namespace sarn::cli

int main(int argc, char** argv) { return sarn::cli::Main(argc, argv); }
