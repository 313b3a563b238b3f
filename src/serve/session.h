// One `sarn serve` session: NDJSON request lines in, one reply line per
// request out, in input order (wire format: protocol.h; design: DESIGN.md
// §10). The caller's thread reads, parses and submits; one writer thread
// writes the replies in `seq` order, each as soon as it is ready, and
// flushes only when the next one is not. `stats` and `statsz` wait until
// every earlier reply is written; a reload loads on its own thread while
// the old index keeps serving.

#ifndef SARN_SERVE_SESSION_H_
#define SARN_SERVE_SESSION_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "geo/spatial_index.h"
#include "serve/query_engine.h"
#include "tasks/embedding_index.h"

namespace sarn::serve {

/// An index file loaded for serving, or the typed reason it was not.
struct IndexFile {
  std::shared_ptr<const tasks::EmbeddingIndex> index;  // Null on failure.
  /// A snapshot's embedded locator; null for a CSV or a snapshot without one.
  std::shared_ptr<const geo::SpatialIndex> locator;
  /// On failure "[<name>] <message>": a SnapshotError or ModelLoadError
  /// name, or metric_mismatch.
  std::string error;
};

/// The one loader for startup and reload. A `.sarnsnap` path is mapped as a
/// serving snapshot, which must have been built for `metric` and carry a
/// payload at `precision`; any other path is read as an embeddings CSV.
IndexFile LoadIndexFile(const std::string& path, tasks::IndexMetric metric,
                        tasks::IndexPrecision precision);

struct SessionOptions {
  int default_k = 10;  // "k" of a query line that omits it.
  /// A reload is loaded like the startup index and must keep its dim.
  tasks::IndexMetric metric = tasks::IndexMetric::kCosine;
  tasks::IndexPrecision precision = tasks::IndexPrecision::kFloat32;
  int64_t dim = 0;
};

/// Answers the lines of `in` until EOF, one reply line on `out` per
/// non-blank line. Returns once every reply is written and flushed.
void RunSession(std::istream& in, std::ostream& out, QueryEngine& engine,
                const SessionOptions& options);

}  // namespace sarn::serve

#endif  // SARN_SERVE_SESSION_H_
