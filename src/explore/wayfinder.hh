/**
 * @file
 * Wayfinder-style configuration sweep (paper 6.1): generates the 80
 * Figure 6 configurations per application — 5 compartmentalization
 * strategies over {app, newlib, uksched, lwip} times 2^4 per-component
 * hardening bundles — materializes each as a SafetyConfig, and measures
 * it with the application benchmark.
 */

#ifndef FLEXOS_EXPLORE_WAYFINDER_HH
#define FLEXOS_EXPLORE_WAYFINDER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "explore/poset.hh"

namespace flexos {
namespace wayfinder {

/** The components varied in the Figure 6 sweep, index order. */
std::vector<std::string> sweepComponents(const std::string &appLib);

/**
 * The five compartmentalization strategies of Figure 8:
 * A all-in-one, B scheduler split, C lwip split, D app+newlib vs
 * sched+lwip, E app+newlib / sched / lwip.
 */
const std::vector<std::vector<int>> &fig6Partitions();

/*
 * The sweep spaces below each cross the five Figure 8 partitions with
 * one or two dimensions of a single axis catalogue (wayfinder.cc):
 * hardening mask, per-block mechanism, per-block gate flavour,
 * deniable-edge subset, elide set and batch width. Every other knob
 * stays at the base point — all-MPK, DSS, no hardening.
 */

/** All 80 configuration points (5 partitions x 16 hardening masks). */
std::vector<ConfigPoint> fig6Space();

/**
 * The mixed-mechanism dimension: every per-block mechanism assignment
 * from {none, intel-mpk, vm-ept, cheri}. A homogeneous assignment
 * reproduces a fig6-style point; the rest are heterogeneous images
 * where each boundary picks its own mechanism.
 */
std::vector<ConfigPoint> mixedMechanismSpace();

/**
 * The per-boundary gate-flavour dimension: every per-block flavour
 * assignment from {light, dss} — each block's flavour governs the
 * gates *into* it, materialized as a `'*' -> block` boundary rule.
 * light < dss orders the points component-wise in the poset.
 */
std::vector<ConfigPoint> gateFlavorSpace();

/**
 * The (from, to) partition-block edges the application's *static call
 * graph* needs under a partition: the edges a least-privilege config
 * must keep. Everything else is deniable without rejecting the image
 * at build.
 */
std::vector<std::pair<int, int>>
requiredBlockEdges(const std::vector<int> &partition,
                   const std::string &appLib);

/**
 * The vectored-crossing dimension: gate batch widths {1, 4, 8} crossed
 * with elision sets {none, validate, scrub, both}, applied image-wide
 * as a `'*' -> '*'` boundary rule. Batch width is performance-only;
 * the elided set orders points by subset (eliding more per-crossing
 * work is strictly less safe).
 */
std::vector<ConfigPoint> batchingSpace();

/**
 * One axis of a lazily enumerated product configuration space. The
 * axis has `size` choices; `le(a, b)` is the safety partial order on
 * choice indices ("a is at most as safe as b"). Choices MUST be
 * listed in a linear extension of that order — le(a, b) implies
 * a <= b, checked by explorePrunedProduct — so that visiting index
 * vectors by ascending index sum never visits a dominating vector
 * before a dominated one. A performance-only axis (batch width,
 * cores) uses equality as its order: no choice prunes any other.
 */
struct ProductDimension
{
    std::string name;
    std::size_t size = 1;
    std::function<bool(std::size_t a, std::size_t b)> le;
};

/**
 * Monotone budget pruning over a product space, without materializing
 * the product (the poset's explore() needs every node up front and
 * O(n^2) edge construction — hopeless for mechanism × flavour × deny
 * × batching products). Index vectors are generated one at a time in
 * ascending index-sum order (a linear extension of the product
 * safety order, given each axis's listing contract); eval() measures
 * a vector's configuration. Since performance decreases monotonically
 * with safety, once a vector misses the budget every vector
 * dominating it component-wise is skipped unevaluated. emit() is
 * called for every vector that met the budget, with its measurement.
 * @return number of evaluations actually run.
 */
std::size_t explorePrunedProduct(
    const std::vector<ProductDimension> &dims,
    const std::function<double(const std::vector<std::size_t> &)> &eval,
    double minPerf,
    const std::function<void(const std::vector<std::size_t> &, double)>
        &emit = {});

/**
 * Per-block mechanisms × per-block gate flavours × deniable-edge
 * subsets × elide sets × batch widths for one Figure 8 partition,
 * wired through explorePrunedProduct so the product is never
 * materialized. The axes are the spaces' own; each axis's order is
 * compareSafety restricted to it (equality for batch width). Points
 * meeting the budget are appended to `accepted` with their measured
 * perf. @return number of evaluations actually run.
 */
std::size_t prunedBoundarySweep(
    const std::vector<int> &partition, const std::string &appLib,
    const std::function<double(ConfigPoint &)> &eval, double minPerf,
    std::vector<ConfigPoint> &accepted);

/**
 * The least-privilege dimension: every subset of *deniable* block
 * edges — ordered pairs the static call graph does not need. Edges the
 * call graph requires are never enumerated as denied (such points
 * would be rejected at image build), so the wayfinder sweeps only
 * buildable least-privilege graphs; denying a superset of edges
 * orders points in the poset.
 */
std::vector<ConfigPoint>
leastPrivilegeSpace(const std::string &appLib = "libredis");

/**
 * Materialize a sweep point as a full safety configuration for the
 * given application (DSS, as Figure 6 fixes). Homogeneous points map
 * every compartment to intel-mpk; points carrying blockMechanism get
 * one mechanism per compartment (none/intel-mpk/vm-ept/cheri by
 * rank); points carrying blockGateFlavor emit a `boundaries:` section
 * with one wildcard rule per light block; deniedEdges add one
 * `deny: true` rule per edge; gateBatch > 1 and a non-empty elided
 * set emit an image-wide `'*' -> '*'` batch/elide rule.
 */
SafetyConfig toSafetyConfig(const ConfigPoint &point,
                            const std::string &appLib);

/**
 * Static boundary-audit hazard score of a sweep point: materializes
 * it via toSafetyConfig and runs the flexos::analysis call-graph and
 * policy passes (no shared-data escape scan — sweeps run far from the
 * source tree and the registry's sources do not vary per point).
 * Lower is cleaner; see flexos::analysis severity weights.
 */
int auditScore(const ConfigPoint &point, const std::string &appLib);

/** Fill point.auditScore (see auditScore()). */
void attachAuditScore(ConfigPoint &point, const std::string &appLib);

/** Measured Redis GET throughput (req/s) for a configuration. */
double measureRedis(const ConfigPoint &point, std::uint64_t requests);

/** Measured Nginx throughput (req/s) for a configuration. */
double measureNginx(const ConfigPoint &point, std::uint64_t requests);

/** Human-readable row label: partition plus hardening dots. */
std::string pointLabel(const ConfigPoint &point,
                       const std::string &appLib);

} // namespace wayfinder
} // namespace flexos

#endif // FLEXOS_EXPLORE_WAYFINDER_HH
