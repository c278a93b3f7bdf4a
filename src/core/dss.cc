#include "core/dss.hh"

#include <exception>

#include "base/logging.hh"

namespace flexos {

DssFrame::DssFrame(Image &image)
    : img(image), strategy(StackSharing::Dss)
{
    protectorOn = img.currentHardening().stackProtector;

    // Stack sharing is a per-boundary policy: follow the layout of
    // the stack the entering crossing built (or the compartment's own
    // resolved strategy when no crossing preceded the frame).
    Thread *t = img.scheduler().current();
    int tid = t ? t->id() : 0;
    int comp = img.currentCompartment();
    strategy = img.frameStrategyFor(tid, comp);

    if (strategy != StackSharing::Heap) {
        stack = &img.simStackFor(tid, comp, strategy);
        savedTop = stack->top;
    }

    if (protectorOn) {
        canary = static_cast<std::uint64_t *>(alloc(sizeof(canaryValue)));
        *canary = canaryValue;
    }
}

DssFrame::~DssFrame() noexcept(false)
{
    bool smashed = protectorOn && canary && *canary != canaryValue;

    for (void *p : heapVars)
        img.sharedFree(p);
    if (stack)
        stack->top = savedTop;

    if (smashed) {
        img.machine().bump(Counter::HardeningCanarySmashed);
        // Throwing while another exception unwinds would terminate.
        if (std::uncaught_exceptions() == 0)
            throw CanaryViolation("stack smashing detected in DSS frame");
    }
}

void *
DssFrame::alloc(std::size_t n)
{
    auto &m = img.machine();
    if (strategy == StackSharing::Heap) {
        // The conversion existing frameworks apply: every shared stack
        // variable becomes a shared-heap allocation (real allocator
        // cost, one call per variable — paper 6.5).
        void *p = img.sharedAlloc(n);
        fatal_if(!p, "shared heap exhausted");
        heapVars.push_back(p);
        return p;
    }

    // Stack-speed allocation: constant cost, compiler-style bump.
    std::size_t aligned = (n + 15) & ~std::size_t(15);
    panic_if(stack->top + aligned > SimStack::stackBytes,
             "simulated stack overflow");
    void *p = stack->mem.get() + stack->top;
    stack->top += aligned;
    m.consume(m.timing.stackAlloc);
    m.bump(Counter::DssStackAllocs);
    return p;
}

void *
DssFrame::shadowOf(void *priv) const
{
    switch (strategy) {
      case StackSharing::Dss:
        // shadow(x) = &x + STACK_SIZE (Figure 4).
        return static_cast<char *>(priv) + SimStack::stackBytes;
      case StackSharing::SharedStack:
      case StackSharing::Heap:
        // The variable itself is already in shared memory.
        return priv;
    }
    return priv;
}

} // namespace flexos
