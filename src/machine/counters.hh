/**
 * @file
 * The machine's event counters, declared once.
 *
 * Every counter any layer bumps is one row of counters.def: its
 * `Counter` ID, name, unit and description. The machine stores the
 * counters in a flat array indexed by ID, so a bump on the crossing
 * path is one indexed add; readers that want names (perfbench records,
 * fig09's counter dump, statsDelta) get them from the table.
 * `tools/counter_doc` renders the table as docs/counters.md.
 */

#ifndef FLEXOS_MACHINE_COUNTERS_HH
#define FLEXOS_MACHINE_COUNTERS_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

namespace flexos {

/** One machine event counter (index into Machine's counter array). */
enum class Counter : std::uint16_t
{
#define COUNTER(id, name, unit, doc) id,
#include "machine/counters.def"
#undef COUNTER
};

/** A counter's declaration: its name, unit and meaning. */
struct CounterInfo
{
    /** The name readers see (counters(), snapshots, JSON records). */
    const char *name;
    const char *unit;
    const char *doc;
};

/** Every counter, indexed by `Counter`. */
inline constexpr CounterInfo counterTable[] = {
#define COUNTER(id, name, unit, doc) {name, unit, doc},
#include "machine/counters.def"
#undef COUNTER
};

/** Number of declared counters. */
inline constexpr std::size_t counterCount = std::size(counterTable);

/** The counter declared with this name, if any. */
std::optional<Counter> counterNamed(std::string_view name);

/** docs/counters.md: every declared counter as a markdown table. */
std::string counterReferenceMarkdown();

} // namespace flexos

#endif // FLEXOS_MACHINE_COUNTERS_HH
