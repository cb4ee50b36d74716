#include "obs/metrics.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

namespace zerodev::obs
{

std::string
promNumber(double v)
{
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    if (std::isnan(v))
        return "NaN";
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[64];
    for (int prec = 1; prec < 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

namespace
{

bool
validMetricName(const std::string &s)
{
    if (s.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' &&
        s[0] != ':')
        return false;
    for (const char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != ':')
            return false;
    }
    return true;
}

bool
validLabelName(const std::string &s)
{
    if (s.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')
        return false;
    for (const char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            return false;
    }
    return true;
}

bool
parseSampleValue(const std::string &s)
{
    if (s == "+Inf" || s == "-Inf" || s == "NaN")
        return true;
    if (s.empty())
        return false;
    char *end = nullptr;
    std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && end != s.c_str();
}

bool
fail(std::string *err, std::size_t lineNo, const std::string &why)
{
    if (err) {
        *err = "line " + std::to_string(lineNo) + ": " + why;
    }
    return false;
}

/** Strip a histogram/summary sample suffix back to its base name. */
std::string
baseMetricName(const std::string &name)
{
    for (const char *suffix : {"_bucket", "_sum", "_count"}) {
        const std::string suf(suffix);
        if (name.size() > suf.size() &&
            name.compare(name.size() - suf.size(), suf.size(), suf) == 0)
            return name.substr(0, name.size() - suf.size());
    }
    return name;
}

} // namespace

bool
checkPrometheusText(const std::string &text, std::string *err)
{
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    // name -> declared type; tracked so TYPE precedes samples and is
    // declared at most once per name.
    std::vector<std::pair<std::string, std::string>> types;
    std::vector<std::string> seenSeries;  // duplicate detection
    std::vector<std::string> sampledBase; // base names with samples

    const auto typeOf = [&](const std::string &name) -> const std::string * {
        for (const auto &t : types) {
            if (t.first == name)
                return &t.second;
        }
        return nullptr;
    };

    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream ls(line);
            std::string hash, kw, name;
            ls >> hash >> kw >> name;
            if (kw != "HELP" && kw != "TYPE")
                continue; // arbitrary comment: legal
            if (!validMetricName(name))
                return fail(err, lineNo,
                            "bad metric name in # " + kw + ": '" +
                                name + "'");
            if (kw == "TYPE") {
                std::string type;
                ls >> type;
                if (type != "counter" && type != "gauge" &&
                    type != "histogram" && type != "summary" &&
                    type != "untyped")
                    return fail(err, lineNo,
                                "unknown TYPE '" + type + "'");
                if (typeOf(name) != nullptr)
                    return fail(err, lineNo,
                                "duplicate TYPE for '" + name + "'");
                for (const std::string &s : sampledBase) {
                    if (s == name)
                        return fail(err, lineNo,
                                    "TYPE for '" + name +
                                        "' after its samples");
                }
                types.emplace_back(name, type);
            }
            continue;
        }

        // Sample line: name[{labels}] value [timestamp]
        std::size_t i = 0;
        while (i < line.size() && line[i] != '{' && line[i] != ' ')
            ++i;
        const std::string name = line.substr(0, i);
        if (!validMetricName(name))
            return fail(err, lineNo, "bad sample name '" + name + "'");

        std::string labels;
        if (i < line.size() && line[i] == '{') {
            const std::size_t close = line.find('}', i);
            if (close == std::string::npos)
                return fail(err, lineNo, "unterminated label set");
            labels = line.substr(i + 1, close - i - 1);
            i = close + 1;

            // Validate label pairs: name="value",...
            std::size_t p = 0;
            while (p < labels.size()) {
                const std::size_t eq = labels.find('=', p);
                if (eq == std::string::npos)
                    return fail(err, lineNo, "label without '='");
                if (!validLabelName(labels.substr(p, eq - p)))
                    return fail(err, lineNo,
                                "bad label name '" +
                                    labels.substr(p, eq - p) + "'");
                if (eq + 1 >= labels.size() || labels[eq + 1] != '"')
                    return fail(err, lineNo, "label value not quoted");
                std::size_t q = eq + 2;
                while (q < labels.size() &&
                       (labels[q] != '"' || labels[q - 1] == '\\'))
                    ++q;
                if (q >= labels.size())
                    return fail(err, lineNo, "unterminated label value");
                p = q + 1;
                if (p < labels.size()) {
                    if (labels[p] != ',')
                        return fail(err, lineNo,
                                    "expected ',' between labels");
                    ++p;
                }
            }
        }

        if (i >= line.size() || line[i] != ' ')
            return fail(err, lineNo, "missing sample value");
        std::istringstream rest(line.substr(i + 1));
        std::string value, timestamp, extra;
        rest >> value >> timestamp >> extra;
        if (!parseSampleValue(value))
            return fail(err, lineNo,
                        "unparseable sample value '" + value + "'");
        if (!extra.empty())
            return fail(err, lineNo, "trailing tokens after sample");
        if (!timestamp.empty()) {
            char *end = nullptr;
            std::strtoll(timestamp.c_str(), &end, 10);
            if (end == nullptr || *end != '\0')
                return fail(err, lineNo,
                            "bad timestamp '" + timestamp + "'");
        }

        // TYPE (when present) must have preceded its samples; histogram
        // component samples resolve to the base name's TYPE block.
        const std::string base = baseMetricName(name);
        if (typeOf(name) == nullptr && typeOf(base) == nullptr &&
            !types.empty() && name.rfind("zerodev_", 0) == 0)
            return fail(err, lineNo,
                        "sample '" + name + "' has no TYPE block");

        const std::string key = name + "{" + labels + "}";
        for (const std::string &s : seenSeries) {
            if (s == key)
                return fail(err, lineNo,
                            "duplicate series '" + key + "'");
        }
        seenSeries.push_back(key);
        sampledBase.push_back(base);
        if (base != name)
            sampledBase.push_back(name);
    }
    if (err)
        err->clear();
    return true;
}

} // namespace zerodev::obs
