#include "base/logging.hh"

#include <cstdio>

namespace flexos {
namespace detail {

namespace {

std::string
locate(const char *file, int line, const char *kind, const std::string &msg)
{
    std::ostringstream oss;
    oss << kind << ": " << msg << " @ " << file << ":" << line;
    return oss.str();
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::string full = locate(file, line, "panic", msg);
    std::fprintf(stderr, "%s\n", full.c_str());
    throw PanicError(full);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::string full = locate(file, line, "fatal", msg);
    std::fprintf(stderr, "%s\n", full.c_str());
    throw FatalError(full);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "warn: %s @ %s:%d\n", msg.c_str(), file, line);
}

} // namespace detail
} // namespace flexos
