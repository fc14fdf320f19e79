#include "json_scan.hpp"

#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench {

Counters parse_counters(std::string_view json) {
    Counters out;
    const std::size_t start = json.find("\"counters\":{");
    if (start == std::string_view::npos) {
        return out;
    }
    std::size_t i = start + 12;
    while (i < json.size() && json[i] != '}') {
        const std::size_t q0 = json.find('"', i);
        const std::size_t q1 = json.find('"', q0 + 1);
        const std::size_t colon = json.find(':', q1);
        if (q0 == std::string_view::npos || q1 == std::string_view::npos ||
            colon == std::string_view::npos) {
            break;
        }
        const std::string name(json.substr(q0 + 1, q1 - q0 - 1));
        const std::string number(json.substr(colon + 1, 32));
        char* end = nullptr;
        out[name] = std::strtod(number.c_str(), &end);
        i = colon + 1 + static_cast<std::size_t>(end - number.c_str());
        if (i < json.size() && json[i] == ',') {
            ++i;
        }
    }
    return out;
}

Counters delta(const Counters& after, const Counters& before) {
    Counters out = after;
    for (const auto& [name, v] : before) {
        out[name] -= v;
    }
    return out;
}

double value(const Counters& c, const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
}

std::map<std::string, double> span_self_ms(std::string_view json) {
    struct Open {
        std::string name;
        double end = 0.0;
        double dur = 0.0;
        double children = 0.0;
    };
    std::map<std::string, double> self_us;
    std::map<unsigned long, std::vector<Open>> stacks;
    auto close = [&self_us](const Open& o) {
        const double own = o.dur - o.children;
        self_us[o.name] += own > 0.0 ? own : 0.0;
    };
    auto number_after = [&json](std::size_t from, std::string_view key, std::size_t* at) {
        const std::size_t k = json.find(key, from);
        if (k == std::string_view::npos) {
            *at = std::string_view::npos;
            return 0.0;
        }
        const std::string text(json.substr(k + key.size(), 32));
        *at = k + key.size();
        return std::strtod(text.c_str(), nullptr);
    };
    std::size_t i = 0;
    for (;;) {
        const std::size_t n0 = json.find("{\"name\":\"", i);
        if (n0 == std::string_view::npos) {
            break;
        }
        const std::size_t n1 = json.find('"', n0 + 9);
        std::string name(json.substr(n0 + 9, n1 - n0 - 9));
        std::size_t at = 0;
        const double ts = number_after(n1, "\"ts\":", &at);
        const double dur = number_after(at, "\"dur\":", &at);
        const auto tid = static_cast<unsigned long>(number_after(at, "\"tid\":", &at));
        if (at == std::string_view::npos) {
            break;
        }
        i = at;
        const double end = ts + dur;
        std::vector<Open>& stack = stacks[tid];
        while (!stack.empty()) {
            const Open& top = stack.back();
            const double tol = 1e-5 * (end > 1.0 ? end : 1.0) + 1e-5 * top.dur;
            if (end <= top.end + tol) {
                break;
            }
            close(top);
            stack.pop_back();
        }
        if (!stack.empty()) {
            stack.back().children += dur;
        }
        stack.push_back(Open{std::move(name), end, dur, 0.0});
    }
    for (auto& [tid, stack] : stacks) {
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    std::map<std::string, double> out;
    for (const auto& [name, us] : self_us) {
        out[name] = us / 1000.0;
    }
    return out;
}

}  // namespace perfbench
