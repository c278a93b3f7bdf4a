/**
 * @file
 * Partial safety ordering (paper section 5).
 *
 * Configurations cannot be totally ordered by safety, but some pairs
 * are programmatically comparable: safety probabilistically increases
 * with (1) the number of compartments (partition refinement), (2) data
 * isolation strength, (3) stackable software hardening, and (4) the
 * strength of the isolation mechanism. The poset of configurations —
 * viewed as a DAG — can then be labelled with measured performance and
 * pruned to the *maximal* (safest) elements meeting a budget.
 */

#ifndef FLEXOS_EXPLORE_POSET_HH
#define FLEXOS_EXPLORE_POSET_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace flexos {

/**
 * One point in the safety configuration space, abstracted for
 * comparison: components are indices 0..n-1.
 */
struct ConfigPoint
{
    /** Component -> compartment block id (normalized partition). */
    std::vector<int> partition;
    /** Per-component hardening bitmask (bit per mechanism). */
    std::vector<unsigned> hardening;
    /** Mechanism strength rank (see mechanismRankLe for the order). */
    int mechanismRank = 1;
    /**
     * Per-block mechanism rank for mixed-mechanism images, indexed by
     * partition block id (none=0, mpk=1, ept=2, cheri=3 — see
     * mechanismRankLe). Empty means the image is homogeneous at
     * mechanismRank. When set, the safety comparison is
     * component-wise: every component's boundary must be at least as
     * strong for one config to dominate the other.
     */
    std::vector<int> blockMechanism;
    /**
     * Per-block MPK gate flavour rank (light=0 < dss=1), indexed by
     * partition block id: the flavour of gates *into* that block.
     * Empty means every boundary runs the full DSS gate. Ordered
     * component-wise like blockMechanism, so light < dss per block.
     */
    std::vector<int> blockGateFlavor;
    /** Data-isolation rank (shared stack=0 < dss=1 < private+heap=2). */
    int sharingRank = 1;

    /**
     * Simulated core count the image boots with. A pure performance
     * dimension: core count does not change the protection state, so
     * compareSafety ignores it — points differing only in cores are
     * Equal in the safety order and distinguished by perf alone.
     */
    int cores = 1;

    /**
     * Vectored-gate batch width (the `batch:` boundary knob, applied
     * image-wide as a wildcard rule). Purely a performance dimension
     * like cores: batching moves calls between crossings without
     * weakening any protection state — every call still passes entry
     * checks and rate enforcement — so compareSafety ignores it.
     */
    int gateBatch = 1;

    /**
     * Crossing-work elided on repeated same-boundary calls (the
     * `elide:` knob): bit 0 = entry validation, bit 1 = return-side
     * scrubbing. Unlike batching this weakens the protection state,
     * so the subset order ranks it — a config eliding a strict
     * superset of another's per-crossing work is strictly LESS safe.
     */
    unsigned elided = 0;

    /**
     * Least-privilege dimension: ordered (from, to) partition-block
     * edges the configuration denies (`deny: true` boundary rules).
     * Denying more edges shrinks the reachable call graph, so the
     * superset relation orders this dimension: a config denying a
     * strict superset of another's edges is (probabilistically)
     * safer. Only meaningful between points over the same partition —
     * block ids name different things otherwise, making the dimension
     * incomparable unless both sets are empty.
     */
    std::vector<std::pair<int, int>> deniedEdges;

    /** Mechanism rank protecting component c's compartment boundary. */
    int mechanismRankOf(std::size_t c) const;

    /** Gate-flavour rank of component c's boundary (default dss=1). */
    int gateFlavorRankOf(std::size_t c) const;

    std::string label;

    /** Measured performance (filled by the explorer); higher=faster. */
    double perf = 0;

    /**
     * Static boundary-audit hazard score of the materialized config
     * (flexos::analysis, call-graph + policy passes; lower = cleaner),
     * or -1 before wayfinder::attachAuditScore() fills it. Like perf
     * this is a measurement label, not a safety dimension —
     * compareSafety ignores it; sweeps plot it against perf instead.
     */
    int auditScore = -1;

    /** Number of distinct compartments in the partition. */
    int compartments() const;
};

/** Result of comparing two configurations by safety. */
enum class SafetyOrder { Less, Equal, Greater, Incomparable };

/**
 * The mechanism-strength dimension is itself a partial order:
 * none(0) < mpk(1) < {ept(2), cheri(3)}, with ept and cheri
 * incomparable — VM-grade address-space isolation and capability-
 * grade spatial safety protect against different attacker models.
 * Returns whether rank a is at most rank b in that order.
 */
bool mechanismRankLe(int a, int b);

/**
 * Compare a and b. Greater means "a is probabilistically safer".
 */
SafetyOrder compareSafety(const ConfigPoint &a, const ConfigPoint &b);

/** Whether partition a refines partition b (a splits at least as much). */
bool refines(const std::vector<int> &a, const std::vector<int> &b);

/**
 * The configuration poset.
 */
class SafetyPoset
{
  public:
    /** Add a configuration; returns its node index. */
    std::size_t add(ConfigPoint p);

    std::size_t size() const { return nodes.size(); }
    const ConfigPoint &at(std::size_t i) const { return nodes[i]; }
    ConfigPoint &at(std::size_t i) { return nodes[i]; }

    /** Build the Hasse diagram (cover edges, transitively reduced). */
    void buildEdges();

    /** Direct covers of node i (immediately-safer configurations). */
    const std::vector<std::size_t> &coversOf(std::size_t i) const;

    /**
     * The safest configurations meeting a performance budget: maximal
     * elements of the sub-poset { perf >= minPerf } (the paper's green
     * starred nodes in Figure 8).
     */
    std::vector<std::size_t> safestWithin(double minPerf) const;

    /**
     * Label nodes by running evaluate() bottom-up with monotone
     * pruning: since performance monotonically decreases with safety,
     * any node whose predecessor already misses the budget is skipped
     * (assigned perf 0). @return number of evaluations actually run.
     */
    std::size_t explore(const std::function<double(ConfigPoint &)> &eval,
                        double minPerf);

    /** Graphviz rendering (Figure 8). */
    std::string toDot(double minPerf) const;

  private:
    bool strictlySafer(std::size_t a, std::size_t b) const;

    std::vector<ConfigPoint> nodes;
    std::vector<std::vector<std::size_t>> covers;  ///< safer neighbours
    std::vector<std::vector<std::size_t>> coveredBy; ///< less-safe nbrs
    bool edgesBuilt = false;
};

} // namespace flexos

#endif // FLEXOS_EXPLORE_POSET_HH
