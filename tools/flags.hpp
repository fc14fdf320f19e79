#pragma once

// Strict numeric command-line values, shared by rrsd, rrsgen, rrsquery and
// rrstile.  The whole value must be one base-10 integer of the target type
// inside [lo, hi]: empty values, signs on unsigned types, trailing garbage
// and out-of-range values are rejected (strtoul/atoi would accept them and
// silently wrap or default).

#include <charconv>
#include <iostream>
#include <limits>
#include <string_view>
#include <system_error>

namespace rrs::tools {

/// Parse `text` into `out`; false (and `out` untouched) on anything but a
/// complete in-range integer.
template <typename T>
bool parse_int(std::string_view text, T& out, T lo = std::numeric_limits<T>::min(),
               T hi = std::numeric_limits<T>::max()) {
    T value{};
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || ptr != end || value < lo || value > hi) {
        return false;
    }
    out = value;
    return true;
}

/// parse_int for the value of flag `flag`; on failure prints
/// "<tool>: <flag> expects an integer in [lo, hi], got '<text>'" to stderr
/// so the caller only has to answer with its usage error.
template <typename T>
bool parse_flag(const char* tool, std::string_view flag, std::string_view text, T& out,
                T lo = std::numeric_limits<T>::min(),
                T hi = std::numeric_limits<T>::max()) {
    if (parse_int(text, out, lo, hi)) {
        return true;
    }
    std::cerr << tool << ": " << flag << " expects an integer in [" << +lo << ", "
              << +hi << "], got '" << text << "'\n";
    return false;
}

}  // namespace rrs::tools
