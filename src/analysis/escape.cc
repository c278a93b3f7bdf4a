#include "analysis/escape.hh"

#include <cctype>
#include <fstream>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace flexos {
namespace analysis {

const char *
datumClassName(DatumClass c)
{
    switch (c) {
    case DatumClass::Constant:
        return "constant";
    case DatumClass::DssFramed:
        return "dss-framed";
    case DatumClass::RegisteredShared:
        return "registered-shared";
    case DatumClass::Escaping:
        return "escaping";
    }
    panic("unreachable datum class");
}

namespace {

/** Whether `word` occurs in `s` as a whole token. */
bool
hasToken(const std::string &s, const std::string &word)
{
    std::size_t pos = 0;
    auto isIdent = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    while ((pos = s.find(word, pos)) != std::string::npos) {
        bool beforeOk = pos == 0 || !isIdent(s[pos - 1]);
        std::size_t end = pos + word.size();
        bool afterOk = end >= s.size() || !isIdent(s[end]);
        if (beforeOk && afterOk)
            return true;
        pos = end;
    }
    return false;
}

/** Keywords that rule a file-scope line out as a data declaration. */
bool
isNonDataLine(const std::string &t)
{
    static const char *starts[] = {
        "#",       "}",          "using ",  "typedef ", "template",
        "class ",  "struct ",    "enum ",   "friend ",  "extern ",
        "return ", "namespace",  "public:", "private:", "protected:",
        "case ",   "static_assert",
    };
    for (const char *s : starts)
        if (startsWith(t, s))
            return true;
    return t.find("operator") != std::string::npos;
}

/** Extract the declared name: the last identifier of the decl part. */
std::string
declaredName(const std::string &declPart)
{
    std::size_t end = declPart.size();
    // Strip trailing array extents / brace initializers: `char
    // buf[64]`, `DecodeResult state{}`.
    std::size_t cut = declPart.find_first_of("[{");
    if (cut != std::string::npos)
        end = cut;
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(declPart[end - 1])))
        --end;
    std::size_t start = end;
    auto isIdent = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    while (start > 0 && isIdent(declPart[start - 1]))
        --start;
    return declPart.substr(start, end - start);
}

/** Per-file lexical scanner state. */
struct FileScanner
{
    const LibraryInfo &info;
    EscapeScan &out;
    const std::string &relPath;

    bool inBlockComment = false;
    bool inRawString = false;
    std::string rawStringEnd{};
    /** Scope stack: true = namespace-like (file scope continues). */
    std::vector<bool> scopes{};
    bool pendingNamespace = false;
    std::string prevRaw{};  ///< previous raw line (trailing markers)
    std::string prevCode{}; ///< previous stripped line (gate sites)

    bool
    atFileScope() const
    {
        for (bool ns : scopes)
            if (!ns)
                return false;
        return true;
    }

    /** Strip comments / string contents, tracking multi-line state. */
    std::string
    stripped(const std::string &raw)
    {
        std::string out;
        std::size_t i = 0;
        while (i < raw.size()) {
            if (inBlockComment) {
                std::size_t close = raw.find("*/", i);
                if (close == std::string::npos)
                    return out;
                inBlockComment = false;
                i = close + 2;
                continue;
            }
            if (inRawString) {
                std::size_t close = raw.find(rawStringEnd, i);
                if (close == std::string::npos)
                    return out;
                inRawString = false;
                i = close + rawStringEnd.size();
                continue;
            }
            if (raw.compare(i, 2, "//") == 0)
                return out;
            if (raw.compare(i, 2, "/*") == 0) {
                inBlockComment = true;
                i += 2;
                continue;
            }
            if (raw.compare(i, 2, "R\"") == 0) {
                // Raw string literal: R"delim( ... )delim".
                std::size_t open = raw.find('(', i + 2);
                if (open == std::string::npos)
                    return out;
                rawStringEnd =
                    ")" + raw.substr(i + 2, open - i - 2) + "\"";
                inRawString = true;
                i = open + 1;
                out += "\"\"";
                continue;
            }
            if (raw[i] == '"') {
                // Ordinary string literal: skip to the closing quote.
                std::size_t j = i + 1;
                while (j < raw.size() &&
                       (raw[j] != '"' || raw[j - 1] == '\\'))
                    ++j;
                out += "\"\"";
                i = j < raw.size() ? j + 1 : raw.size();
                continue;
            }
            if (raw[i] == '\'') {
                std::size_t j = i + 1;
                while (j < raw.size() &&
                       (raw[j] != '\'' || raw[j - 1] == '\\'))
                    ++j;
                out += "' '";
                i = j < raw.size() ? j + 1 : raw.size();
                continue;
            }
            out += raw[i++];
        }
        return out;
    }

    DatumClass
    classify(const std::string &raw, const std::string &declPart,
             const std::string &name) const
    {
        if (hasToken(declPart, "constexpr"))
            return DatumClass::Constant;
        // A const non-pointer/non-reference datum is immutable; a
        // `const T *p` pointer is itself still writable shared state.
        if (hasToken(declPart, "const") &&
            declPart.find('*') == std::string::npos &&
            declPart.find('&') == std::string::npos)
            return DatumClass::Constant;
        auto marked = [&](const char *marker) {
            return raw.find(marker) != std::string::npos ||
                   prevRaw.find(marker) != std::string::npos;
        };
        if (marked("flexos: dss"))
            return DatumClass::DssFramed;
        if (marked("flexos: shared") || info.sharedData.count(name))
            return DatumClass::RegisteredShared;
        return DatumClass::Escaping;
    }

    void
    consider(const std::string &raw, const std::string &code,
             std::size_t lineNo)
    {
        std::string t = trim(code);
        bool fileScope = atFileScope();
        bool localStatic = !fileScope && startsWith(t, "static ");
        if (t.empty() || (!fileScope && !localStatic))
            return;
        if (fileScope && isNonDataLine(t))
            return;
        std::size_t semi = t.find(';');
        if (semi == std::string::npos)
            return;
        std::size_t eq = t.find('=');
        std::string declPart =
            t.substr(0, eq != std::string::npos && eq < semi ? eq
                                                             : semi);
        // Function declarations / calls carry parens; data does not
        // (brace-or-equals initialization keeps this heuristic sound
        // for the idiom of this code base).
        if (declPart.find('(') != std::string::npos)
            return;
        std::string name = declaredName(declPart);
        if (name.empty())
            return;
        // A single token is a statement, not a declaration.
        if (trim(declPart).find_first_of(" \t*&") == std::string::npos)
            return;
        DatumClass cls = classify(raw, declPart, name);
        if (cls == DatumClass::Constant)
            return;
        out.data.push_back({name, relPath, lineNo, cls});
    }

    void
    trackGateSites(const std::string &code)
    {
        bool gateCall = code.find(".gate(") != std::string::npos;
        bool capture = code.find("[&") != std::string::npos;
        bool prevGate = prevCode.find(".gate(") != std::string::npos;
        if (capture && (gateCall || prevGate))
            ++out.pointerCarryingCalls;
    }

    void
    trackScopes(const std::string &code)
    {
        std::string t = trim(code);
        bool namespaceLine = startsWith(t, "namespace") ||
                             startsWith(t, "inline namespace") ||
                             startsWith(t, "extern \"\"");
        if (namespaceLine && t.find('{') == std::string::npos)
            pendingNamespace = true;
        bool nextIsNamespace = namespaceLine || pendingNamespace;
        for (char c : code) {
            if (c == '{') {
                scopes.push_back(nextIsNamespace);
                nextIsNamespace = false;
                pendingNamespace = false;
            } else if (c == '}') {
                if (!scopes.empty())
                    scopes.pop_back();
            }
        }
        if (!t.empty() && !namespaceLine)
            pendingNamespace = false;
    }

    void
    line(const std::string &raw, std::size_t lineNo)
    {
        std::string code = stripped(raw);
        consider(raw, code, lineNo);
        trackGateSites(code);
        trackScopes(code);
        prevRaw = raw;
        prevCode = code;
    }
};

} // namespace

EscapeScan
scanLibrarySources(const LibraryInfo &info, const std::string &srcRoot)
{
    EscapeScan scan;
    for (const std::string &rel : info.files) {
        std::string path =
            srcRoot.empty() ? rel : srcRoot + "/" + rel;
        std::ifstream in(path);
        if (!in) {
            scan.missingFiles.push_back(rel);
            continue;
        }
        FileScanner fs{info, scan, rel};
        std::string raw;
        std::size_t lineNo = 0;
        while (std::getline(in, raw))
            fs.line(raw, ++lineNo);
    }
    return scan;
}

void
escapePass(const SafetyConfig &cfg, const LibraryRegistry &reg,
           const std::string &srcRoot, AuditReport &report)
{
    // One protection domain: nothing can escape anywhere.
    if (cfg.compartments.size() < 2)
        return;

    for (const auto &[lib, compName] : cfg.libraries) {
        if (!reg.contains(lib))
            continue;
        const LibraryInfo &info = reg.get(lib);
        if (info.files.empty())
            continue;
        EscapeScan scan = scanLibrarySources(info, srcRoot);

        int dssFramed = 0, registered = 0;
        for (const SharedDatum &d : scan.data) {
            if (d.cls == DatumClass::DssFramed)
                ++dssFramed;
            else if (d.cls == DatumClass::RegisteredShared)
                ++registered;
            if (d.cls != DatumClass::Escaping)
                continue;
            Finding f;
            f.pass = "escape";
            f.code = "escaping-shared-datum";
            f.severity = Severity::Error;
            f.library = lib;
            f.datum = d.name;
            f.file = d.file;
            f.line = d.line;
            f.message = "mutable global '" + d.name + "' of library " +
                        lib + " (compartment '" + compName +
                        "') is neither DSS-framed nor registered "
                        "shared — it escapes the boundary";
            report.add(std::move(f));
        }

        if (dssFramed || registered) {
            Finding f;
            f.pass = "escape";
            f.code = "shared-data-summary";
            f.severity = Severity::Note;
            f.library = lib;
            f.message = "library " + lib + ": " +
                        std::to_string(dssFramed) + " dss-framed, " +
                        std::to_string(registered) +
                        " registered-shared datum/data";
            report.add(std::move(f));
        }
        if (scan.pointerCarryingCalls) {
            Finding f;
            f.pass = "escape";
            f.code = "pointer-carrying-calls";
            f.severity = Severity::Note;
            f.library = lib;
            f.message =
                "library " + lib + ": " +
                std::to_string(scan.pointerCarryingCalls) +
                " gate call site(s) capture by reference (caller-"
                "frame pointers cross the boundary)";
            report.add(std::move(f));
        }
        for (const std::string &missing : scan.missingFiles) {
            Finding f;
            f.pass = "escape";
            f.code = "missing-source";
            f.severity = Severity::Note;
            f.library = lib;
            f.file = missing;
            f.message = "registered source " + missing + " of library " +
                        lib + " not found under the source root";
            report.add(std::move(f));
        }
    }
}

} // namespace analysis
} // namespace flexos
