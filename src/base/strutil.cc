#include "base/strutil.hh"

#include <cctype>
#include <cstdlib>

namespace flexos {

std::string
trim(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitWs(std::string_view s)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start)
            out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
parseInt(std::string_view s, long &out)
{
    std::string tmp = trim(s);
    if (tmp.empty())
        return false;
    char *end = nullptr;
    long v = std::strtol(tmp.c_str(), &end, 10);
    if (end != tmp.c_str() + tmp.size())
        return false;
    out = v;
    return true;
}

} // namespace flexos
