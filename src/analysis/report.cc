#include "analysis/report.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "base/logging.hh"

namespace flexos {
namespace analysis {

const char *
severityName(Severity s)
{
    switch (s) {
    case Severity::Note:
        return "note";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    panic("unreachable severity");
}

bool
Finding::operator<(const Finding &o) const
{
    return std::tie(pass, code, from, to, library, file, line, datum,
                    message) < std::tie(o.pass, o.code, o.from, o.to,
                                        o.library, o.file, o.line,
                                        o.datum, o.message);
}

void
AuditReport::normalize()
{
    std::sort(findings.begin(), findings.end());
    std::sort(suggestedDeny.begin(), suggestedDeny.end());
}

std::size_t
AuditReport::countOf(Severity s) const
{
    std::size_t n = 0;
    for (const Finding &f : findings)
        n += f.severity == s;
    return n;
}

int
AuditReport::score() const
{
    int total = 0;
    for (const Finding &f : findings)
        switch (f.severity) {
        case Severity::Error:
            total += errorWeight;
            break;
        case Severity::Warning:
            total += warningWeight;
            break;
        case Severity::Note:
            total += noteWeight;
            break;
        }
    return total;
}

std::string
AuditReport::toText() const
{
    std::ostringstream oss;
    oss << "== " << label << "\n";
    for (const Finding &f : findings) {
        oss << severityName(f.severity) << ": [" << f.pass << "/"
            << f.code << "]";
        if (!f.from.empty() && !f.to.empty())
            oss << " " << f.from << " -> " << f.to << ":";
        else if (!f.to.empty())
            oss << " " << f.to << ":"; // compartment-anchored finding
        oss << " " << f.message;
        if (!f.file.empty()) {
            oss << " (" << f.file;
            if (f.line)
                oss << ":" << f.line;
            oss << ")";
        }
        oss << "\n";
    }
    if (!suggestedDeny.empty()) {
        oss << "suggested deny:";
        bool first = true;
        for (const auto &[f, t] : suggestedDeny) {
            oss << (first ? " " : ", ") << f << " -> " << t;
            first = false;
        }
        oss << "\n";
    }
    oss << "score: " << score() << " (" << countOf(Severity::Error)
        << " error(s), " << countOf(Severity::Warning)
        << " warning(s), " << countOf(Severity::Note) << " note(s))\n";
    return oss.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
AuditReport::toJson() const
{
    std::ostringstream oss;
    oss << "{\"config\": \"" << jsonEscape(label) << "\", ";
    oss << "\"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (i)
            oss << ", ";
        oss << "{\"pass\": \"" << jsonEscape(f.pass) << "\", \"code\": \""
            << jsonEscape(f.code) << "\", \"severity\": \""
            << severityName(f.severity) << "\", \"message\": \""
            << jsonEscape(f.message) << "\"";
        if (!f.from.empty())
            oss << ", \"from\": \"" << jsonEscape(f.from) << "\"";
        if (!f.to.empty())
            oss << ", \"to\": \"" << jsonEscape(f.to) << "\"";
        if (!f.library.empty())
            oss << ", \"library\": \"" << jsonEscape(f.library) << "\"";
        if (!f.datum.empty())
            oss << ", \"datum\": \"" << jsonEscape(f.datum) << "\"";
        if (!f.file.empty())
            oss << ", \"file\": \"" << jsonEscape(f.file) << "\"";
        if (f.line)
            oss << ", \"line\": " << f.line;
        oss << "}";
    }
    oss << "], \"suggested_deny\": [";
    for (std::size_t i = 0; i < suggestedDeny.size(); ++i) {
        if (i)
            oss << ", ";
        oss << "{\"from\": \"" << jsonEscape(suggestedDeny[i].first)
            << "\", \"to\": \"" << jsonEscape(suggestedDeny[i].second)
            << "\"}";
    }
    oss << "], \"score\": " << score() << "}";
    return oss.str();
}

} // namespace analysis
} // namespace flexos
