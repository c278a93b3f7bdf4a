/**
 * @file
 * The FlexOS toolchain (paper 3.1, Figure 3): validates a safety
 * configuration, performs the build-time "source transformations" —
 * gate instantiation, shared-data strategy instantiation, linker-script
 * generation — and produces a runnable Image.
 *
 * In the paper the transformations are Coccinelle semantic patches over
 * C sources; here they materialize as a gate plan + memory layout that
 * the Image executes, plus a human-readable transformation report that
 * plays the role of the inspectable rewritten sources.
 */

#ifndef FLEXOS_CORE_TOOLCHAIN_HH
#define FLEXOS_CORE_TOOLCHAIN_HH

#include <memory>
#include <string>
#include <vector>

#include "core/image.hh"

namespace flexos {

/** What the build step did — the inspectable transformation record. */
struct BuildReport
{
    /** Instantiated backends, joined (e.g. "intel-mpk(dss)+vm-ept"). */
    std::string backendName;
    std::string linkerScript;
    /** One line per rewritten call site / annotation. */
    std::vector<std::string> transformations;
    int gatesInserted = 0;
    int annotationsReplaced = 0;
};

/**
 * The build toolchain.
 */
class Toolchain
{
  public:
    explicit Toolchain(const LibraryRegistry &reg) : reg(reg) {}

    /**
     * Check a configuration for user errors. Throws FatalError on:
     * missing/duplicate default compartment, unknown libraries or
     * compartments, double library assignment, MPK key exhaustion
     * (counting only key-consuming compartments — EPT compartments
     * are VM-private and keyless), boundary rules naming unknown
     * compartments, `servers:` on non-EPT compartments, or TCB
     * libraries placed outside the trusted compartment when any
     * compartment's mechanism does not replicate the kernel.
     * Mixed-mechanism configurations are legal: each (from, to)
     * boundary is enforced under its GateMatrix policy. Matrix
     * resolution also rejects equal-specificity rule conflicts;
     * `deny:` rules covering statically-needed call edges are
     * rejected by build() below while it instantiates gates —
     * `tools/config_lint` warns about them earlier.
     */
    void validate(const SafetyConfig &cfg) const;

    /**
     * Validate, transform and boot an image for the configuration.
     * The BuildReport for the last build is kept on the toolchain.
     */
    std::unique_ptr<Image> build(Machine &m, Scheduler &s,
                                 const SafetyConfig &cfg);

    const BuildReport &report() const { return lastReport; }

    /** The library registry the toolchain builds against (the same
     *  registry static analyses must resolve call edges from). */
    const LibraryRegistry &registry() const { return reg; }

  private:
    const LibraryRegistry &reg;
    BuildReport lastReport;
};

} // namespace flexos

#endif // FLEXOS_CORE_TOOLCHAIN_HH
