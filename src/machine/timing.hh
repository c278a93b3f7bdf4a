/**
 * @file
 * The timing model: the single source of truth for every cycle cost charged
 * by the simulation.
 *
 * Calibration. The gate-latency entries are taken directly from the paper's
 * Figure 11b microbenchmark (Intel Xeon Silver 4114 @ 2.2 GHz): function
 * call 2, MPK light gate 62, MPK DSS gate 108, EPT RPC gate 462, Linux
 * syscall 470 (KPTI) / 146 (no KPTI). Costs the paper does not report
 * directly are derived from its macrobenchmarks and noted inline.
 */

#ifndef FLEXOS_MACHINE_TIMING_HH
#define FLEXOS_MACHINE_TIMING_HH

#include <cstdint>

namespace flexos {

/** Virtual CPU cycles. */
using Cycles = std::uint64_t;

/**
 * Cycle cost table for the simulated machine.
 *
 * All costs are end-to-end (round trip) unless stated otherwise. Workload
 * code charges these through Machine::consume(); backends charge the gate
 * entries on every domain transition.
 */
struct TimingModel
{
    /** Simulated core frequency, GHz (paper testbed: Xeon 4114 @ 2.2). */
    double cpuGhz = 2.2;

    /** @name Gate latencies (Figure 11b). @{ */
    /** Plain function call (same compartment). */
    Cycles functionCall = 2;
    /** MPK gate sharing stack+registers (ERIM-style): raw wrpkru pair. */
    Cycles mpkLightGate = 62;
    /** Full MPK gate: register save/zero + PKRU switch + stack switch. */
    Cycles mpkDssGate = 108;
    /**
     * EPT backend RPC marshalling cost. The end-to-end gate latency
     * additionally pays two cooperative context switches plus the RPC
     * server dispatch, totalling the paper's 462-cycle round trip:
     * 192 + 2*contextSwitch(120) + pollDispatch(30) = 462.
     */
    Cycles eptGate = 192;
    /** Linux syscall round trip with KPTI enabled. */
    Cycles syscallKpti = 470;
    /** Linux syscall round trip without KPTI. */
    Cycles syscallNoKpti = 146;
    /** @} */

    /** @name Derived / decomposed gate components. @{ */
    /** One raw wrpkru instruction (light gate ~= 2x wrpkru + call). */
    Cycles wrpkru = 28;
    /** Register set save + clear + argument reload (full MPK gate). */
    Cycles registerSaveZero = 26;
    /** Per-thread per-compartment call-stack switch via stack registry. */
    Cycles stackSwitch = 20;
    /**
     * Caller-side entry-point validation forced by a boundary policy
     * (`validate: true`): one hash-table probe of the callee's export
     * table, comparable to the RPC server's dispatch check.
     */
    Cycles entryValidate = 18;
    /** @} */

    /**
     * @name Return-leg gate costs.
     * Each Figure 11b round trip decomposes into an entry and a return
     * leg charged per direction; entry = round trip - return, so the
     * totals above stay exact. The return leg of the full MPK gate is
     * registerSaveZero (scrub on the way out) + stackSwitch back to the
     * caller stack; `scrub: false` drops the registerSaveZero term.
     * @{
     */
    /** Light MPK gate return: the second wrpkru + return sequence. */
    Cycles mpkLightReturn = 30;
    /** Full MPK gate return: scrub + stack switch back. */
    Cycles mpkDssReturn = 46;
    /** EPT RPC return: response marshalling + caller-side unpack. */
    Cycles eptReturn = 64;
    /** @} */

    /**
     * @name SMP costs (N-core simulation).
     * A crossing into a compartment whose working set was last touched
     * by another core pays a cache/TLB migration penalty; cross-core
     * wakeups pay an IPI. Calibrated against inter-core cache-line
     * transfer latencies on the paper's Xeon 4114 testbed (~100-200
     * cycles per line, a few lines of hot state per event).
     * @{
     */
    /** Inter-processor interrupt: send + remote receipt + EOI. */
    Cycles ipi = 600;
    /** Compartment state migration when a crossing changes cores. */
    Cycles crossCoreMigration = 250;
    /** Run-queue steal: migrating a ready thread to the idle core. */
    Cycles stealMigration = 250;
    /** @} */

    /** @name Baseline OS crossing costs (derived from Figure 10). @{ */
    /**
     * seL4/Genode IPC round trip. Derived: seL4 PT3 runs the SQLite
     * benchmark ~3.1x slower than FlexOS MPK3 on the same crossing count.
     */
    Cycles sel4Ipc = 980;
    /**
     * CubicleOS domain transition: pkey_mprotect syscall pair through the
     * linuxu layer ("orders of magnitude more expensive", paper 6.4);
     * derived from CubicleOS MPK3 ~14.7x FlexOS MPK3.
     */
    Cycles pkeyMprotect = 2850;
    /** CubicleOS trap-and-map: page fault + map on first shared access. */
    Cycles trapAndMapFault = 4050;
    /** @} */

    /** @name Memory and allocator costs. @{ */
    /** One internal allocator step (bitmap scan, list unlink, split...). */
    Cycles allocStep = 12;
    /** Fixed entry cost of a heap allocator call. */
    Cycles allocBase = 40;
    /** Stack (and DSS) allocation: one push, constant (Figure 11a). */
    Cycles stackAlloc = 2;
    /**
     * Copy cost, cycles per 16-byte chunk moved. Calibrated so the
     * network data plane lands in the paper's Figure 9 range (the
     * Xeon 4114 testbed peaks around 4 Gb/s for iPerf over lwIP —
     * several copies plus checksumming per byte across the stack).
     */
    Cycles copyPer16B = 10;
    /** Checksum cost: cycles per 16-byte chunk summed. */
    Cycles csumPer16B = 8;
    /**
     * Filesystem block copy cost per 16-byte chunk: ramfs block moves
     * are single cache-warm memcpys, far cheaper than the multi-hop
     * network data plane.
     */
    Cycles fsCopyPer16B = 2;
    /** @} */

    /** @name Device / kernel path fixed costs. @{ */
    /** NIC enqueue/dequeue of one frame (descriptor handling). */
    Cycles nicFrame = 90;
    /** Per-packet protocol processing base (headers, demux). */
    Cycles packetProc = 160;
    /** Scheduler context switch (cooperative). */
    Cycles contextSwitch = 120;
    /** VFS operation base cost (path resolution per component etc.). */
    Cycles vfsOpBase = 110;
    /** ramfs per-op base cost. */
    Cycles ramfsOpBase = 60;
    /** Interrupt/poll dispatch. */
    Cycles pollDispatch = 30;
    /** @} */

    /**
     * @name Software-hardening overheads, percent extra work on the
     * instrumented component (paper 4.5 bundle: stack protector + UBSan +
     * KASan; combined ~= 2.5x, consistent with Figure 6 where hardening
     * the Redis application alone costs 42% of end-to-end throughput).
     * @{
     */
    unsigned hardenStackProtectorPct = 8;
    unsigned hardenUbsanPct = 32;
    unsigned hardenKasanPct = 110;
    unsigned hardenCfiPct = 15;
    unsigned hardenAsanPct = 95;
    /** @} */
};

} // namespace flexos

#endif // FLEXOS_MACHINE_TIMING_HH
