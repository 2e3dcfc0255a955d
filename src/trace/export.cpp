#include "trace/export.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "util/stats.hpp"

namespace bertha {

namespace {

void json_escape(std::ostringstream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
}

std::string format_us(uint64_t v_ns) {
  // Microseconds with nanosecond precision, no scientific notation.
  std::ostringstream os;
  os << v_ns / 1000 << "." << std::setw(3) << std::setfill('0') << v_ns % 1000;
  return os.str();
}

}  // namespace

std::string export_chrome_trace(const std::vector<SpanRecord>& spans) {
  // Small sequential pids keep the viewer's process rows readable; the
  // real 64-bit ids ride in args.
  std::map<uint64_t, int> trace_pid;
  for (const auto& s : spans)
    trace_pid.emplace(s.trace_id, static_cast<int>(trace_pid.size()) + 1);

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    json_escape(os, s.name);
    os << "\",\"cat\":\"bertha\",\"ph\":\"X\",\"ts\":" << format_us(s.start_ns)
       << ",\"dur\":" << format_us(s.duration_ns())
       << ",\"pid\":" << trace_pid[s.trace_id]
       << ",\"tid\":" << s.thread_index << ",\"args\":{\"trace_id\":\""
       << s.trace_id << "\",\"span_id\":\"" << s.span_id
       << "\",\"parent_id\":\"" << s.parent_id << "\"";
    for (const auto& [k, v] : s.tags) {
      os << ",\"";
      json_escape(os, k);
      os << "\":\"";
      json_escape(os, v);
      os << "\"";
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

std::string export_text_summary(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;

  // Index spans by id and group children under parents per trace.
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.span_id] = &s;
  std::map<uint64_t, std::vector<const SpanRecord*>> children;
  std::map<uint64_t, std::vector<const SpanRecord*>> roots;  // by trace id
  for (const auto& s : spans) {
    if (s.parent_id != 0 && by_id.count(s.parent_id))
      children[s.parent_id].push_back(&s);
    else
      roots[s.trace_id].push_back(&s);  // true roots + orphaned remotes
  }

  std::function<void(const SpanRecord*, int)> emit = [&](const SpanRecord* s,
                                                         int depth) {
    os << std::string(static_cast<size_t>(depth) * 2, ' ') << s->name << "  "
       << format_us(s->duration_ns()) << "us";
    for (const auto& [k, v] : s->tags) os << "  " << k << "=" << v;
    os << "\n";
    for (const auto* c : children[s->span_id]) emit(c, depth + 1);
  };

  for (const auto& [trace_id, trace_roots] : roots) {
    os << "trace " << trace_id << ":\n";
    for (const auto* r : trace_roots) emit(r, 1);
  }

  // Per-name latency table.
  std::map<std::string, Histogram> by_name;
  for (const auto& s : spans) by_name[s.name].record(s.duration_ns());
  if (!by_name.empty()) {
    os << "phase latency (us):\n";
    for (const auto& [name, h] : by_name)
      os << "  " << name << "  " << h.summarize(1e3).to_string() << "\n";
  }
  return os.str();
}

}  // namespace bertha
