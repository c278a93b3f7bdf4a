#include "machine/counters.hh"

#include <sstream>

namespace flexos {

std::optional<Counter>
counterNamed(std::string_view name)
{
    for (std::size_t i = 0; i < counterCount; ++i)
        if (name == counterTable[i].name)
            return static_cast<Counter>(i);
    return std::nullopt;
}

std::string
counterReferenceMarkdown()
{
    std::ostringstream oss;
    oss << "# Counter reference\n\n";
    oss << "<!-- GENERATED FILE — do not edit. Produced by "
           "`tools/counter_doc` from the\n     counter table in "
           "src/machine/counters.def; regenerate with\n     "
           "`./build/counter_doc > docs/counters.md`. CI fails if this "
           "file is stale. -->\n\n";
    oss << "Every event counter the simulated machine keeps, in "
           "declaration order. Layers\nbump a counter by its `Counter` "
           "ID (`Machine::bump`); readers see it by name\nin "
           "`Machine::counters()`, `Image::snapshotStats()` and the "
           "perfbench records,\nwhich hold only the counters bumped at "
           "least once (a bump by 0 counts). Every\ncounter is a "
           "running total except `gate.ept.ringDepth`, a high-water "
           "mark.\n\n";
    oss << "| Counter | Unit | Description |\n";
    oss << "|---------|------|-------------|\n";
    for (const CounterInfo &c : counterTable)
        oss << "| `" << c.name << "` | " << c.unit << " | " << c.doc
            << " |\n";
    return oss.str();
}

} // namespace flexos
