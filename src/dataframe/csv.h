#ifndef CULINARYLAB_DATAFRAME_CSV_H_
#define CULINARYLAB_DATAFRAME_CSV_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dataframe/table.h"
#include "robustness/error_sink.h"
#include "robustness/retry.h"

namespace culinary::df {

/// Options controlling CSV parsing.
struct CsvReadOptions {
  /// Field delimiter.
  char delimiter = ',';
  /// When true the first record supplies column names; otherwise columns are
  /// named "c0", "c1", ...
  bool has_header = true;
  /// When true column types are inferred (all-int64 → int64, otherwise
  /// all-double → double, otherwise string). When false every column is
  /// string.
  bool infer_types = true;
  /// Empty unquoted fields become nulls when true, empty strings otherwise.
  bool empty_as_null = true;

  /// How malformed records are handled (see robustness/error_sink.h):
  ///   * kStrict — the first malformed record fails the whole read with a
  ///     line/column-bearing ParseError (seed behaviour);
  ///   * kSkipAndReport — malformed records are quarantined (dropped) with
  ///     a diagnostic in `error_sink`, parsing continues;
  ///   * kBestEffort — additionally, ragged rows are padded with nulls /
  ///     truncated to the header width instead of dropped.
  robustness::ErrorPolicy error_policy = robustness::ErrorPolicy::kStrict;
  /// Receives per-record diagnostics under non-strict policies (may be
  /// null, in which case errors are counted only through `stats`).
  robustness::ErrorSink* error_sink = nullptr;
  /// Receives record-level accounting: total / kept / quarantined data
  /// records (may be null).
  robustness::IngestStats* stats = nullptr;
};

/// Options controlling CSV serialization.
struct CsvWriteOptions {
  char delimiter = ',';
  bool write_header = true;
  /// Rendering for null cells.
  std::string null_literal;
  /// When true `WriteCsvFile` is crash-safe: it writes `<path>.tmp` and
  /// renames it over `path` only after a successful flush, so a crash
  /// mid-write leaves the previous file intact (the orphan temp file is
  /// the crash's only residue).
  bool atomic_write = false;
};

/// One field of a scanned CSV record, unescaped. `text` points into the
/// scanned text, or, for a quoted field with doubled-quote escapes, into
/// storage owned by the scan; either way it stays valid until `ScanCsv`
/// returns.
struct CsvField {
  std::string_view text;
  /// True for a quoted field. Only an empty *unquoted* field is null.
  bool quoted = false;
};

/// Receives one record and the 1-based source line it starts on.
using CsvRecordFn =
    std::function<void(const std::vector<CsvField>& fields, size_t line)>;

/// The CSV tokenizer: streams RFC-4180 `text` (quoted fields, doubled-quote
/// escapes, embedded newlines inside quotes, \n or \r\n separators, a final
/// record without a trailing newline) to `on_record`, one record at a time.
/// The first record fixes the width; with `options.has_header` it is the
/// header and does not count as data. `on_record` sees the first record and
/// then every data record that passes the width check, in source order.
///
/// `options.error_policy` decides what a damaged record costs. Under
/// `kStrict` the result is a ParseError carrying line and column: the first
/// structural error (garbage after a closing quote, an unterminated quote
/// at EOF) if any, otherwise the first ragged record; no data record is
/// handed on after a ragged one. Under the degraded policies a structurally
/// damaged record is dropped and a ragged one quarantined, or with
/// `kBestEffort` padded with null fields / truncated and kept; each costs
/// one `options.error_sink` diagnostic, every structural one ahead of every
/// width one. ParseError "empty CSV input" when no record survives.
/// `options.stats` receives the record accounting. `delimiter` and
/// `has_header` are the only other options read.
culinary::Status ScanCsv(std::string_view text, const CsvReadOptions& options,
                         const CsvRecordFn& on_record);

/// Reads the file at `path` into one buffer sized from its length. IOError
/// when it cannot be read; checks the `csv.open` / `csv.read`
/// fault-injection sites (see robustness/fault_injector.h).
culinary::Result<std::string> ReadCsvBytes(const std::string& path);

/// Parses RFC-4180 CSV text into a Table: `ScanCsv` (which defines the
/// accepted syntax and every `ErrorPolicy` outcome) plus column naming and
/// type inference per `options`.
culinary::Result<Table> ReadCsvString(std::string_view text,
                                      const CsvReadOptions& options = {});

/// `ReadCsvBytes` then `ReadCsvString`.
culinary::Result<Table> ReadCsvFile(const std::string& path,
                                    const CsvReadOptions& options = {});

/// `ReadCsvFile` with transient IO failures retried under `retry`
/// (exponential backoff with deterministic jitter). Parse errors are never
/// retried.
culinary::Result<Table> ReadCsvFileRetry(const std::string& path,
                                         const CsvReadOptions& options,
                                         const robustness::RetryPolicy& retry);

/// Serializes `table` as CSV text. Fields containing the delimiter, quotes
/// or newlines are quoted; quotes are doubled.
std::string WriteCsvString(const Table& table,
                           const CsvWriteOptions& options = {});

/// Writes `table` to `path`. IOError when the file cannot be written. With
/// `options.atomic_write` the write is crash-safe (temp file + rename).
/// Checks the `csv.open_write` / `csv.write` / `csv.rename` fault-injection
/// sites.
culinary::Status WriteCsvFile(const Table& table, const std::string& path,
                              const CsvWriteOptions& options = {});

}  // namespace culinary::df

#endif  // CULINARYLAB_DATAFRAME_CSV_H_
