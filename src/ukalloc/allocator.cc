#include "ukalloc/allocator.hh"

#include "machine/machine.hh"

namespace flexos {

void
Allocator::charge(std::uint64_t steps)
{
    stats_.steps += steps;
    mach.consume(mach.timing.allocBase + steps * mach.timing.allocStep);
}

} // namespace flexos
