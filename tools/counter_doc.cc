/**
 * @file
 * Counter-reference generator: prints docs/counters.md to stdout from
 * the counter table in src/machine/counters.def, the one place every
 * machine counter is declared. The `counter_doc_fresh` CTest fails
 * when the committed reference drifts from the table.
 *
 * Usage:
 *     counter_doc > docs/counters.md
 */

#include <iostream>

#include "machine/counters.hh"

int
main()
{
    std::cout << flexos::counterReferenceMarkdown();
    return 0;
}
