#pragma once

/// \file json_scan.hpp
/// Readers for the two JSON documents rrsd serves: the /metrics snapshot
/// (only its flat "counters" object is needed) and the /tracez Chrome trace.

#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// name -> value of every entry of the document's "counters" object.
using Counters = std::map<std::string, double>;
Counters parse_counters(std::string_view metrics_json);

/// `after - before`, entry by entry (names missing from `before` count 0).
Counters delta(const Counters& after, const Counters& before);

/// Value of `name`, 0 when absent.
double value(const Counters& c, const std::string& name);

/// Self time per span name, in milliseconds: each span's duration minus the
/// part of it that the spans nested inside it cover (same thread).
///
/// /tracez prints timestamps with the stream's default six significant
/// digits, so a start time is only known to about 1e-5 of its magnitude.
/// Spans on one thread are either nested or disjoint, and come sorted by
/// start; a span counts as nested in the open one when it ends no later
/// than that one ends, give or take that rounding.
std::map<std::string, double> span_self_ms(std::string_view trace_json);

}  // namespace perfbench
