/**
 * @file
 * Escape-scanner fixture: one global of every classification the
 * shared-data pass distinguishes, plus the lexical hazards the
 * scanner must not trip over (comments, raw strings, local statics,
 * pointer-carrying gate call sites). NOT part of the build — scanned
 * by tests/test_analysis.cc through a synthetic library registry
 * entry whose `sharedData` registers `missCount`.
 */

#include <cstdint>

#include "core/image.hh"

namespace leaky {
namespace {

constexpr int tableSize = 64; // constant: never reported

const int tableShift = 6; // const non-pointer: never reported

const char *banner = "leaky fixture"; // mutable pointer: escaping

// flexos: dss
std::uint64_t dssCounter = 0; // marker on previous line

std::uint64_t hitCount = 0; // flexos: shared

std::uint64_t missCount = 0; // registered via LibraryInfo.sharedData

int leakedState = 0; // unannotated mutable global: escaping

/* int commentedOut = 0;
   int alsoCommented = 0; -- inside a block comment, never reported */

const char *fixtureConfig = R"cfg(
compartments: not a real one   # inside a raw string, never parsed
int notADatum = 0;
)cfg";

} // namespace

int
bump()
{
    static int bumpCalls = 0; // function-local static: escaping
    return ++bumpCalls;
}

int
use(flexos::Image &img, int x)
{
    // A pointer-carrying gate call site: the by-reference capture
    // hands caller-frame addresses across the boundary.
    return img.gate(img.site("newlib", "memcpy"),
                    [&] { return x + leakedState; });
}

} // namespace leaky
