/**
 * @file
 * Small string helpers shared across the code base.
 */

#ifndef FLEXOS_BASE_STRUTIL_HH
#define FLEXOS_BASE_STRUTIL_HH

#include <string>
#include <string_view>
#include <vector>

namespace flexos {

/** Strip leading/trailing whitespace. */
std::string trim(std::string_view s);

/** Split on a delimiter character; empty fields are kept. */
std::vector<std::string> split(std::string_view s, char delim);

/** Split on any run of whitespace; empty fields are dropped. */
std::vector<std::string> splitWs(std::string_view s);

/** True if s starts with the given prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

/** Parse a decimal integer; returns false on malformed input. */
bool parseInt(std::string_view s, long &out);

} // namespace flexos

#endif // FLEXOS_BASE_STRUTIL_HH
