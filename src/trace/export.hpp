// Trace exporters.
//
//  - export_chrome_trace: Chrome trace-event JSON ("X" complete events)
//    loadable in chrome://tracing and Perfetto. Each trace id becomes a
//    pid row, each recording thread a tid row; ids and tags ride in
//    per-event args.
//  - export_text_summary: human-readable span tree per trace (indented,
//    with durations and tags) followed by a per-span-name latency table
//    (count / p50 / p99 / p99.9 / max, microseconds).
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace bertha {

std::string export_chrome_trace(const std::vector<SpanRecord>& spans);

std::string export_text_summary(const std::vector<SpanRecord>& spans);

}  // namespace bertha
