//===- telemetry/Exporters.cpp - Trace and metrics export formats ---------===//

#include "telemetry/Exporters.h"

#include "support/Csv.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>

using namespace ccsim;
using namespace ccsim::telemetry;

std::optional<TraceFormat>
ccsim::telemetry::parseTraceFormat(const std::string &Text) {
  if (Text == "chrome")
    return TraceFormat::Chrome;
  if (Text == "jsonl")
    return TraceFormat::JsonLines;
  if (Text == "csv")
    return TraceFormat::Csv;
  return std::nullopt;
}

std::string ccsim::telemetry::jsonEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (unsigned char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  return Out;
}

namespace {

/// Whether records of kind \p K carry an interned label id in A.
bool hasLabel(EventKind K) {
  return K == EventKind::TenantTag || K == EventKind::Mark ||
         K == EventKind::JobState || K == EventKind::Contention;
}

std::string formatDouble(double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

bool writeStringToFile(const std::string &Text, const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  return static_cast<bool>(Out);
}

std::string labelsJson(const MetricLabels &Labels) {
  std::string Out = "{";
  for (size_t I = 0; I < Labels.size(); ++I) {
    if (I)
      Out.push_back(',');
    Out.append("\"").append(jsonEscape(Labels[I].first)).append("\":\"");
    Out.append(jsonEscape(Labels[I].second)).append("\"");
  }
  Out.push_back('}');
  return Out;
}

std::string labelsText(const MetricLabels &Labels) {
  std::string Out;
  for (size_t I = 0; I < Labels.size(); ++I) {
    if (I)
      Out.push_back(',');
    Out += Labels[I].first + "=" + Labels[I].second;
  }
  return Out;
}

} // namespace

std::string ccsim::telemetry::renderTraceJsonLines(const EventTracer &Tracer) {
  std::string Out;
  for (const TraceEvent &E : Tracer.snapshot()) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"seq\":%" PRIu64 ",\"tick\":%" PRIu64
                  ",\"kind\":\"%s\",\"tenant\":%u,\"block\":%" PRId64
                  ",\"a\":%" PRIu64 ",\"b\":%" PRIu64,
                  E.Seq, E.Tick, eventKindName(E.Kind), E.Tenant,
                  E.Block == NoBlock ? int64_t(-1) : int64_t(E.Block), E.A,
                  E.B);
    Out += Buf;
    if (hasLabel(E.Kind))
      Out += ",\"label\":\"" +
             jsonEscape(Tracer.labelText(static_cast<uint32_t>(E.A))) + "\"";
    Out += "}\n";
  }
  return Out;
}

std::string ccsim::telemetry::renderTraceCsv(const EventTracer &Tracer) {
  CsvWriter Csv({"seq", "tick", "kind", "tenant", "block", "a", "b",
                 "label"});
  for (const TraceEvent &E : Tracer.snapshot()) {
    Csv.beginRow();
    Csv.cell(E.Seq);
    Csv.cell(E.Tick);
    Csv.cell(std::string(eventKindName(E.Kind)));
    Csv.cell(static_cast<uint64_t>(E.Tenant));
    Csv.cell(E.Block == NoBlock ? std::string("-")
                                : std::to_string(E.Block));
    Csv.cell(E.A);
    Csv.cell(E.B);
    Csv.cell(hasLabel(E.Kind)
                 ? Tracer.labelText(static_cast<uint32_t>(E.A))
                 : std::string());
  }
  return Csv.render();
}

std::string ccsim::telemetry::renderChromeTrace(const EventTracer &Tracer) {
  // The trace_event JSON object format: instant events ("ph":"i") on one
  // process, with the tenant as the thread lane and the logical tick as
  // the microsecond clock. chrome://tracing and Perfetto open this
  // directly.
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  for (const TraceEvent &E : Tracer.snapshot()) {
    if (!First)
      Out += ",\n";
    First = false;
    const char *Kind = eventKindName(E.Kind);
    std::string Name = Kind;
    if (hasLabel(E.Kind))
      Name = jsonEscape(Tracer.labelText(static_cast<uint32_t>(E.A)));
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":%" PRIu64 ",\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"seq\":%" PRIu64 ",\"block\":%" PRId64
                  ",\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}}",
                  Name.c_str(), Kind, E.Tick, E.Tenant, E.Seq,
                  E.Block == NoBlock ? int64_t(-1) : int64_t(E.Block), E.A,
                  E.B);
    Out += Buf;
  }
  char Tail[128];
  std::snprintf(Tail, sizeof(Tail),
                "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"recorded\":%" PRIu64 ",\"dropped\":%" PRIu64 "}}",
                Tracer.totalRecorded(), Tracer.droppedCount());
  Out += Tail;
  Out.push_back('\n');
  return Out;
}

bool ccsim::telemetry::writeTraceFile(const EventTracer &Tracer,
                                      const std::string &Path,
                                      TraceFormat Format) {
  switch (Format) {
  case TraceFormat::Chrome:
    return writeStringToFile(renderChromeTrace(Tracer), Path);
  case TraceFormat::JsonLines:
    return writeStringToFile(renderTraceJsonLines(Tracer), Path);
  case TraceFormat::Csv:
    return writeStringToFile(renderTraceCsv(Tracer), Path);
  }
  return false;
}

std::string
ccsim::telemetry::renderMetricsJsonLines(const MetricsRegistry &Metrics) {
  std::string Out;
  for (const MetricSample &S : Metrics.snapshot()) {
    Out += "{\"name\":\"" + jsonEscape(S.Name) + "\",\"labels\":" +
           labelsJson(S.Labels);
    switch (S.Kind) {
    case MetricSample::Type::Counter:
      Out += ",\"type\":\"counter\",\"value\":" +
             std::to_string(S.CounterValue);
      break;
    case MetricSample::Type::Gauge:
      Out += ",\"type\":\"gauge\",\"value\":" + formatDouble(S.GaugeValue);
      break;
    case MetricSample::Type::Histogram: {
      Out += ",\"type\":\"histogram\",\"bucket_width\":" +
             formatDouble(S.HistogramBucketWidth) + ",\"counts\":[";
      for (size_t I = 0; I < S.HistogramCounts.size(); ++I) {
        if (I)
          Out.push_back(',');
        Out += std::to_string(S.HistogramCounts[I]);
      }
      Out += "],\"total\":" + std::to_string(S.HistogramTotal);
      break;
    }
    }
    Out += "}\n";
  }
  return Out;
}

std::string
ccsim::telemetry::renderMetricsCsv(const MetricsRegistry &Metrics) {
  CsvWriter Csv({"name", "labels", "type", "value"});
  for (const MetricSample &S : Metrics.snapshot()) {
    Csv.beginRow();
    Csv.cell(S.Name);
    Csv.cell(labelsText(S.Labels));
    switch (S.Kind) {
    case MetricSample::Type::Counter:
      Csv.cell(std::string("counter"));
      Csv.cell(S.CounterValue);
      break;
    case MetricSample::Type::Gauge:
      Csv.cell(std::string("gauge"));
      Csv.cell(formatDouble(S.GaugeValue));
      break;
    case MetricSample::Type::Histogram:
      Csv.cell(std::string("histogram"));
      Csv.cell(S.HistogramTotal);
      break;
    }
  }
  return Csv.render();
}

bool ccsim::telemetry::writeMetricsFile(const MetricsRegistry &Metrics,
                                        const std::string &Path) {
  const bool IsCsv =
      Path.size() >= 4 && Path.compare(Path.size() - 4, 4, ".csv") == 0;
  return writeStringToFile(IsCsv ? renderMetricsCsv(Metrics)
                                 : renderMetricsJsonLines(Metrics),
                           Path);
}

//===----------------------------------------------------------------------===//
// Chrome trace validation: a minimal recursive-descent JSON parser that
// counts "cat" string values as it goes.
//===----------------------------------------------------------------------===//

namespace {

class JsonValidator {
public:
  JsonValidator(const std::string &Text,
                std::map<std::string, size_t> *Categories)
      : P(Text.data()), End(Text.data() + Text.size()),
        Categories(Categories) {}

  bool run(std::string *Error) {
    skipWs();
    bool SawTraceEvents = false;
    if (!parseTopLevel(SawTraceEvents)) {
      if (Error)
        *Error = Err.empty() ? "malformed JSON" : Err;
      return false;
    }
    skipWs();
    if (P != End) {
      if (Error)
        *Error = "trailing garbage after JSON document";
      return false;
    }
    if (!SawTraceEvents) {
      if (Error)
        *Error = "top-level object has no \"traceEvents\" array";
      return false;
    }
    return true;
  }

private:
  const char *P;
  const char *End;
  std::map<std::string, size_t> *Categories;
  std::string Err;

  void skipWs() {
    while (P != End && std::isspace(static_cast<unsigned char>(*P)))
      ++P;
  }

  bool fail(const char *Message) {
    if (Err.empty())
      Err = Message;
    return false;
  }

  bool consume(char C, const char *Message) {
    if (P == End || *P != C)
      return fail(Message);
    ++P;
    return true;
  }

  /// The Chrome trace container itself: an object that must hold a
  /// "traceEvents" key mapped to an array.
  bool parseTopLevel(bool &SawTraceEvents) {
    if (P == End || *P != '{')
      return fail("expected a top-level object");
    return parseObject(&SawTraceEvents);
  }

  bool parseValue() {
    if (P == End)
      return fail("unexpected end of input");
    switch (*P) {
    case '{':
      return parseObject(nullptr);
    case '[':
      return parseArray();
    case '"': {
      std::string S;
      return parseString(S);
    }
    case 't':
      return parseLiteral("true");
    case 'f':
      return parseLiteral("false");
    case 'n':
      return parseLiteral("null");
    default:
      return parseNumber();
    }
  }

  bool parseObject(bool *SawTraceEvents) {
    if (!consume('{', "expected '{'"))
      return false;
    skipWs();
    if (P != End && *P == '}') {
      ++P;
      return true;
    }
    while (true) {
      skipWs();
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':', "expected ':' after object key"))
        return false;
      skipWs();
      if (Key == "cat" && Categories && P != End && *P == '"') {
        std::string Cat;
        if (!parseString(Cat))
          return false;
        ++(*Categories)[Cat];
      } else {
        const bool IsTraceEvents = Key == "traceEvents";
        if (IsTraceEvents && SawTraceEvents) {
          if (P == End || *P != '[')
            return fail("\"traceEvents\" must be an array");
          *SawTraceEvents = true;
        }
        if (!parseValue())
          return false;
      }
      skipWs();
      if (P != End && *P == ',') {
        ++P;
        continue;
      }
      return consume('}', "expected ',' or '}' in object");
    }
  }

  bool parseArray() {
    if (!consume('[', "expected '['"))
      return false;
    skipWs();
    if (P != End && *P == ']') {
      ++P;
      return true;
    }
    while (true) {
      skipWs();
      if (!parseValue())
        return false;
      skipWs();
      if (P != End && *P == ',') {
        ++P;
        continue;
      }
      return consume(']', "expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    if (!consume('"', "expected '\"'"))
      return false;
    Out.clear();
    while (P != End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == End)
          return fail("unterminated escape");
        switch (*P) {
        case '"':
        case '\\':
        case '/':
          Out.push_back(*P);
          break;
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          Out.push_back(' ');
          break;
        case 'u':
          for (int I = 0; I < 4; ++I) {
            ++P;
            if (P == End ||
                !std::isxdigit(static_cast<unsigned char>(*P)))
              return fail("bad \\u escape");
          }
          Out.push_back('?');
          break;
        default:
          return fail("unknown escape");
        }
        ++P;
      } else if (static_cast<unsigned char>(*P) < 0x20) {
        return fail("raw control character in string");
      } else {
        Out.push_back(*P);
        ++P;
      }
    }
    return consume('"', "unterminated string");
  }

  bool parseNumber() {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    while (P != End &&
           (std::isdigit(static_cast<unsigned char>(*P)) || *P == '.' ||
            *P == 'e' || *P == 'E' || *P == '+' || *P == '-'))
      ++P;
    if (P == Start || (P == Start + 1 && *Start == '-'))
      return fail("expected a number");
    return true;
  }

  bool parseLiteral(const char *Word) {
    for (const char *W = Word; *W; ++W) {
      if (P == End || *P != *W)
        return fail("bad literal");
      ++P;
    }
    return true;
  }
};

} // namespace

bool ccsim::telemetry::validateChromeTrace(
    const std::string &Json, std::map<std::string, size_t> *CategoryCounts,
    std::string *Error) {
  std::map<std::string, size_t> Local;
  JsonValidator V(Json, CategoryCounts ? CategoryCounts : &Local);
  if (CategoryCounts)
    CategoryCounts->clear();
  return V.run(Error);
}
