/**
 * @file
 * Data Shadow Stacks (paper 4.1, Figure 4).
 *
 * Stack allocations are cheap because the compiler does the bookkeeping;
 * the DSS reuses that bookkeeping for *shared* stack variables: thread
 * stacks are doubled, the upper half lives in the shared domain, and
 * the shadow of variable x is simply &x + STACK_SIZE. The toolchain
 * rewrites references to shared stack variables into shadow references.
 *
 * A DssFrame is the runtime analogue of one function's stack frame
 * after that rewrite. Its allocation strategy follows the StackSharing
 * resolved for the boundary that entered the compartment (the gate
 * matrix's per-(from, to) `stack_sharing` policy; the global config
 * key is just the `'*' -> '*'` default):
 *  - Dss:         bump the private stack; shadow = ptr + stackBytes.
 *  - SharedStack: bump the (entirely shared) stack; shadow = ptr.
 *  - Heap:        one shared-heap allocation per variable (the costly
 *                 conversion existing works use; Figure 11a).
 */

#ifndef FLEXOS_CORE_DSS_HH
#define FLEXOS_CORE_DSS_HH

#include <cstdint>
#include <vector>

#include "core/image.hh"

namespace flexos {

/**
 * One function frame holding shared stack variables.
 */
class DssFrame
{
  public:
    /** Open a frame on the calling thread's compartment stack. */
    explicit DssFrame(Image &img);

    /** Close the frame; verifies the canary under stack-protector. */
    ~DssFrame() noexcept(false);

    DssFrame(const DssFrame &) = delete;
    DssFrame &operator=(const DssFrame &) = delete;

    /** Allocate one shared variable of n bytes. */
    void *alloc(std::size_t n);

    /** Typed variable allocation. */
    template <typename T>
    T *
    var()
    {
        return static_cast<T *>(alloc(sizeof(T)));
    }

    /**
     * The shadow of a frame variable: the address library code in other
     * compartments uses (&x + STACK_SIZE under DSS).
     */
    template <typename T>
    T *
    shadow(T *priv) const
    {
        return reinterpret_cast<T *>(shadowOf(priv));
    }

  private:
    void *shadowOf(void *priv) const;

    static constexpr std::uint64_t canaryValue = 0xdead60a7cafef00dull;

    Image &img;
    StackSharing strategy;
    SimStack *stack = nullptr; ///< null under Heap strategy
    std::size_t savedTop = 0;
    std::uint64_t *canary = nullptr;
    bool protectorOn = false;
    std::vector<void *> heapVars; ///< Heap strategy allocations
};

} // namespace flexos

#endif // FLEXOS_CORE_DSS_HH
