#include "dataframe/csv.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>

#include "common/atomic_file.h"
#include "common/string_util.h"
#include "robustness/fault_injector.h"

namespace culinary::df {

namespace {

using robustness::ErrorPolicy;
using robustness::ErrorSink;
using robustness::FaultInjector;

/// An owned copy of a kept record's field, for the Table consumer.
struct RawField {
  std::string text;
  bool quoted = false;
};

using RawRecord = std::vector<RawField>;

void ReportOrCount(ErrorSink* sink, size_t line, size_t column,
                   std::string message, std::string snippet) {
  if (sink != nullptr) {
    sink->Report(line, column, StatusCode::kParseError, std::move(message),
                 std::move(snippet));
  }
}

bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

culinary::Status ScanCsv(std::string_view text, const CsvReadOptions& options,
                         const CsvRecordFn& on_record) {
  const char delimiter = options.delimiter;
  const ErrorPolicy policy = options.error_policy;
  ErrorSink* sink = options.error_sink;
  const size_t n = text.size();

  std::vector<CsvField> fields;
  // Unescaped text of fields with doubled-quote escapes; a deque, so the
  // views into earlier entries survive later insertions.
  std::deque<std::string> unescaped;
  // Width diagnostics are reported after the scan, behind every structural
  // one, in the order a tokenize-then-check reader reports them.
  std::vector<robustness::Diagnostic> width_diagnostics;
  culinary::Status width_error;  // first ragged record under kStrict
  size_t num_cols = 0;
  size_t records_seen = 0;  // records out of the tokenizer, header included
  size_t dropped = 0;       // damaged records dropped by the tokenizer
  size_t ragged_dropped = 0;
  size_t kept = 0;

  auto end_record = [&](size_t record_line) {
    ++records_seen;
    const bool is_header = records_seen == 1 && options.has_header;
    if (records_seen == 1) num_cols = fields.size();
    if (!is_header && fields.size() != num_cols) {
      std::string message = "record at line " + std::to_string(record_line) +
                            " has " + std::to_string(fields.size()) +
                            " fields, expected " + std::to_string(num_cols);
      if (policy == ErrorPolicy::kStrict) {
        if (width_error.ok()) {
          width_error = culinary::Status::ParseError(std::move(message));
        }
        return;
      }
      if (sink != nullptr) {
        robustness::Diagnostic d;
        d.line = record_line;
        d.message = std::move(message);
        d.snippet = std::string(fields[0].text);
        width_diagnostics.push_back(std::move(d));
      }
      if (policy != ErrorPolicy::kBestEffort) {
        ++ragged_dropped;
        return;
      }
      fields.resize(num_cols);  // pads with unquoted empty (null) fields
    }
    if (!is_header) ++kept;
    if (width_error.ok()) on_record(fields, record_line);
  };

  enum class State { kFieldStart, kUnquoted, kQuoted, kQuoteInQuoted };
  State state = State::kFieldStart;
  size_t line = 1;
  size_t line_start = 0;   // index of the first byte of `line`
  size_t record_line = 1;  // line the in-flight record started on
  size_t quote_line = 0;   // position of the last opening quote
  size_t quote_column = 0;
  // The in-flight field: its first content byte, and for a quoted field
  // the closing quote and, once it had an escape, its unescaped text so
  // far plus the first byte not yet copied there.
  size_t field_begin = 0;
  size_t close_quote = 0;
  std::string* escaped = nullptr;
  size_t copied_to = 0;
  bool quoted = false;

  auto end_field = [&](std::string_view field_text) {
    fields.push_back({field_text, quoted});
    quoted = false;
    escaped = nullptr;
  };
  auto quoted_text = [&](size_t end) -> std::string_view {
    if (escaped == nullptr) return text.substr(field_begin, end - field_begin);
    escaped->append(text, copied_to, end - copied_to);
    return *escaped;
  };
  // An unquoted field ending a record: strip the \r of a \r\n separator.
  auto unquoted_text = [&](size_t end) {
    std::string_view t = text.substr(field_begin, end - field_begin);
    if (!t.empty() && t.back() == '\r') t.remove_suffix(1);
    return t;
  };
  auto next_line = [&](size_t newline_at) {
    ++line;
    line_start = newline_at + 1;
  };

  for (size_t i = 0; i < n; ++i) {
    const char c = text[i];
    switch (state) {
      case State::kFieldStart:
        if (c == '"') {
          quoted = true;
          quote_line = line;
          quote_column = i - line_start + 1;
          field_begin = i + 1;
          state = State::kQuoted;
        } else if (c == delimiter) {
          end_field({});
        } else if (c == '\n') {
          end_field({});
          end_record(record_line);
          fields.clear();
          next_line(i);
          record_line = line;
        } else if (c != '\r') {  // a \r before the content is swallowed
          field_begin = i;
          state = State::kUnquoted;
        }
        break;
      case State::kUnquoted:
        if (c == delimiter) {
          end_field(text.substr(field_begin, i - field_begin));
          state = State::kFieldStart;
        } else if (c == '\n') {
          end_field(unquoted_text(i));
          end_record(record_line);
          fields.clear();
          next_line(i);
          record_line = line;
          state = State::kFieldStart;
        }
        break;
      case State::kQuoted:
        if (c == '"') {
          close_quote = i;
          state = State::kQuoteInQuoted;
        } else if (c == '\n') {
          next_line(i);
        }
        break;
      case State::kQuoteInQuoted:
        if (c == '"') {  // doubled quote: one literal quote
          if (escaped == nullptr) {
            escaped = &unescaped.emplace_back();
            copied_to = field_begin;
          }
          escaped->append(text, copied_to, close_quote + 1 - copied_to);
          copied_to = i + 1;
          state = State::kQuoted;
        } else if (c == delimiter) {
          end_field(quoted_text(close_quote));
          state = State::kFieldStart;
        } else if (c == '\n') {
          end_field(quoted_text(close_quote));
          end_record(record_line);
          fields.clear();
          next_line(i);
          record_line = line;
          state = State::kFieldStart;
        } else if (c != '\r') {  // a \r after the closing quote is swallowed
          std::string message =
              "unexpected character after closing quote at line " +
              std::to_string(line) + ", column " +
              std::to_string(i - line_start + 1);
          if (policy == ErrorPolicy::kStrict) {
            return culinary::Status::ParseError(std::move(message));
          }
          ReportOrCount(sink, line, i - line_start + 1, std::move(message),
                        std::string(1, c));
          // Resync: drop the damaged record and skip to the next newline.
          fields.clear();
          quoted = false;
          escaped = nullptr;
          ++dropped;
          while (i < n && text[i] != '\n') ++i;
          if (i < n) {
            next_line(i);
            record_line = line;
          }
          state = State::kFieldStart;
        }
        break;
    }
  }

  switch (state) {
    case State::kQuoted: {
      std::string message = "unterminated quoted field starting at line " +
                            std::to_string(quote_line) + ", column " +
                            std::to_string(quote_column);
      if (policy == ErrorPolicy::kStrict) {
        return culinary::Status::ParseError(std::move(message));
      }
      ReportOrCount(sink, quote_line, quote_column, std::move(message),
                    std::string(quoted_text(n).substr(
                        0, ErrorSink::kMaxSnippetBytes)));
      ++dropped;
      break;
    }
    case State::kQuoteInQuoted:
      end_field(quoted_text(close_quote));
      end_record(record_line);
      break;
    case State::kUnquoted:
      end_field(unquoted_text(n));
      end_record(record_line);
      break;
    case State::kFieldStart:
      // A final record without a trailing newline, ending in a delimiter.
      if (!fields.empty()) {
        end_field({});
        end_record(record_line);
      }
      break;
  }

  if (records_seen == 0) {
    return culinary::Status::ParseError("empty CSV input");
  }
  CULINARY_RETURN_IF_ERROR(width_error);
  if (sink != nullptr) {
    for (robustness::Diagnostic& d : width_diagnostics) {
      sink->Report(std::move(d));
    }
  }
  if (options.stats != nullptr) {
    const size_t header = options.has_header ? 1 : 0;
    options.stats->records_total = records_seen - header + dropped;
    options.stats->records_ok = kept;
    options.stats->records_quarantined = dropped + ragged_dropped;
  }
  return culinary::Status::OK();
}

culinary::Result<Table> ReadCsvString(std::string_view text,
                                      const CsvReadOptions& options) {
  // Kept records are copied out: type inference needs every record before
  // the first row is built.
  std::vector<std::string> names;
  std::vector<RawRecord> records;
  bool first = true;
  CULINARY_RETURN_IF_ERROR(ScanCsv(
      text, options, [&](const std::vector<CsvField>& fields, size_t) {
        if (first) {
          first = false;
          for (size_t c = 0; c < fields.size(); ++c) {
            names.push_back(options.has_header ? std::string(fields[c].text)
                                               : "c" + std::to_string(c));
          }
          if (options.has_header) return;
        }
        RawRecord& record = records.emplace_back();
        record.reserve(fields.size());
        for (const CsvField& f : fields) {
          record.push_back({std::string(f.text), f.quoted});
        }
      }));
  const size_t num_cols = names.size();

  auto is_null = [&](const RawField& f) {
    return options.empty_as_null && !f.quoted && f.text.empty();
  };

  // Infer per-column types over non-null fields.
  std::vector<DataType> types(num_cols, DataType::kString);
  if (options.infer_types) {
    for (size_t c = 0; c < num_cols; ++c) {
      bool all_int = true, all_double = true, any_value = false;
      for (const RawRecord& record : records) {
        const RawField& f = record[c];
        if (is_null(f)) continue;
        any_value = true;
        int64_t iv;
        double dv;
        if (all_int && !ParseInt64(f.text, &iv)) all_int = false;
        if (all_double && !ParseDouble(f.text, &dv)) all_double = false;
        if (!all_double) break;
      }
      if (any_value && all_int) {
        types[c] = DataType::kInt64;
      } else if (any_value && all_double) {
        types[c] = DataType::kDouble;
      }
    }
  }

  std::vector<Field> fields;
  for (size_t c = 0; c < num_cols; ++c) fields.push_back({names[c], types[c]});
  CULINARY_ASSIGN_OR_RETURN(Table table, Table::Make(Schema(std::move(fields))));
  table.Reserve(records.size());

  for (const RawRecord& record : records) {
    std::vector<Value> row;
    row.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      const RawField& f = record[c];
      if (is_null(f)) {
        row.push_back(Value::Null());
        continue;
      }
      switch (types[c]) {
        case DataType::kInt64: {
          int64_t v = 0;
          ParseInt64(f.text, &v);
          row.push_back(Value::Int(v));
          break;
        }
        case DataType::kDouble: {
          double v = 0;
          ParseDouble(f.text, &v);
          row.push_back(Value::Real(v));
          break;
        }
        case DataType::kString:
          row.push_back(Value::Str(f.text));
          break;
      }
    }
    CULINARY_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

culinary::Result<std::string> ReadCsvBytes(const std::string& path) {
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvOpen)
                               .WithContext("opening " + path));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return culinary::Status::IOError("cannot open file: " + path);
  }
  std::string bytes;
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) {
    bytes.resize(size);
    in.read(bytes.data(), static_cast<std::streamsize>(size));
    bytes.resize(static_cast<size_t>(in.gcount()));
  }
  // Whatever the length did not cover: a file that grew, or one whose
  // length is unknown.
  char chunk[1 << 16];
  while (in) {
    in.read(chunk, sizeof(chunk));
    bytes.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return culinary::Status::IOError("error reading file: " + path);
  }
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvRead)
                               .WithContext("reading " + path));
  return bytes;
}

culinary::Result<Table> ReadCsvFile(const std::string& path,
                                    const CsvReadOptions& options) {
  CULINARY_ASSIGN_OR_RETURN(std::string bytes, ReadCsvBytes(path));
  return ReadCsvString(bytes, options);
}

culinary::Result<Table> ReadCsvFileRetry(
    const std::string& path, const CsvReadOptions& options,
    const robustness::RetryPolicy& retry) {
  return robustness::RetryResult(
      retry, [&]() { return ReadCsvFile(path, options); });
}

namespace {

void WriteField(std::string& out, std::string_view text, char delimiter) {
  bool needs_quotes = false;
  for (char c : text) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    out.append(text);
    return;
  }
  out.push_back('"');
  for (char c : text) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

/// Streams `table` as CSV into `path` verbatim (no temp file).
culinary::Status WriteCsvFileDirect(const Table& table,
                                    const std::string& path,
                                    const CsvWriteOptions& options) {
  CULINARY_RETURN_IF_ERROR(FaultInjector::Global()
                               .Check(robustness::kFaultCsvOpenWrite)
                               .WithContext("opening for write " + path));
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return culinary::Status::IOError("cannot open file for write: " + path);
  }
  out << WriteCsvString(table, options);
  out.flush();
  if (!out) {
    return culinary::Status::IOError("error writing file: " + path);
  }
  // Fires after bytes hit the temp/destination file — the "crash
  // mid-write" injection point.
  return FaultInjector::Global()
      .Check(robustness::kFaultCsvWrite)
      .WithContext("writing " + path);
}

}  // namespace

std::string WriteCsvString(const Table& table, const CsvWriteOptions& options) {
  std::string out;
  const size_t cols = table.num_columns();
  if (options.write_header) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out.push_back(options.delimiter);
      WriteField(out, table.schema().field(c).name, options.delimiter);
    }
    out.push_back('\n');
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out.push_back(options.delimiter);
      Value v = table.GetValue(r, c);
      if (v.is_null()) {
        out.append(options.null_literal);
      } else if (v.is_double()) {
        // Round-trippable formatting (Value::ToString truncates for display).
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.as_double());
        WriteField(out, buf, options.delimiter);
      } else {
        WriteField(out, v.ToString(), options.delimiter);
      }
    }
    out.push_back('\n');
  }
  return out;
}

culinary::Status WriteCsvFile(const Table& table, const std::string& path,
                              const CsvWriteOptions& options) {
  if (!options.atomic_write) {
    return WriteCsvFileDirect(table, path, options);
  }
  // Crash-safe via the shared helper: temp + fsync + rename + directory
  // fsync. The fault hook maps the helper's step boundaries onto the
  // long-standing CSV injection sites so chaos schedules keep working.
  culinary::AtomicWriteOptions atomic;
  atomic.fault_hook =
      [&path](std::string_view step) -> culinary::Status {
    if (step == culinary::kAtomicStepOpen) {
      return FaultInjector::Global()
          .Check(robustness::kFaultCsvOpenWrite)
          .WithContext("opening for write " + path);
    }
    if (step == culinary::kAtomicStepWrite) {
      return FaultInjector::Global()
          .Check(robustness::kFaultCsvWrite)
          .WithContext("writing " + path);
    }
    if (step == culinary::kAtomicStepRename) {
      return FaultInjector::Global()
          .Check(robustness::kFaultCsvRename)
          .WithContext("renaming " + path + ".tmp");
    }
    return culinary::Status::OK();
  };
  return WriteFileAtomic(path, WriteCsvString(table, options), atomic);
}

}  // namespace culinary::df
