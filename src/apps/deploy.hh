/**
 * @file
 * Deployment: one fully wired FlexOS instance — machine, scheduler,
 * image built from a safety configuration, network stacks (server side
 * in the lwip compartment, client side free-running), a ramfs-backed
 * VFS, and the libc facade. The entry point users of this library
 * instantiate; every benchmark and example builds on it.
 */

#ifndef FLEXOS_APPS_DEPLOY_HH
#define FLEXOS_APPS_DEPLOY_HH

#include <memory>
#include <string>

#include "apps/libc.hh"
#include "core/toolchain.hh"
#include "runtime/controller.hh"
#include "ukalloc/lea.hh"
#include "vfs/ramfs.hh"

namespace flexos {

/** Knobs for a Deployment. */
struct DeployOptions
{
    bool withNet = true;
    bool withFs = true;
    TimingModel timing{};
    std::size_t heapBytes = 4 * 1024 * 1024;
    std::size_t sharedHeapBytes = 2 * 1024 * 1024;

    /**
     * Filesystem block allocator: the vfscore compartment's TLSF (the
     * Unikraft/FlexOS default) or a dedicated Lea allocator (what
     * CubicleOS links — paper 6.4).
     */
    enum class FsAllocator { Compartment, Lea } fsAllocator =
        FsAllocator::Compartment;
};

/**
 * A booted FlexOS deployment.
 */
class Deployment
{
  public:
    /** Build and boot from config text (the paper's YAML subset). */
    explicit Deployment(const std::string &configText,
                        DeployOptions opts = {});

    /** Build from an already parsed config. */
    Deployment(SafetyConfig cfg, DeployOptions opts);

    ~Deployment();

    Deployment(const Deployment &) = delete;
    Deployment &operator=(const Deployment &) = delete;

    /** Start the network pollers (no-op without networking). */
    void start();

    /** Stop pollers and wind the deployment down. */
    void stop();

    Machine &machine() { return *mach; }
    Scheduler &scheduler() { return *sched; }
    Image &image() { return *img; }
    LibcApi &libc() { return *libcApi; }
    Vfs &vfs() { return *fs; }
    NetStack &serverStack() { return *serverNet; }
    NetStack &clientStack() { return *clientNet; }
    Toolchain &toolchain() { return *tc; }

    /**
     * The NIC link between the stacks (endA = server side), or null
     * without networking. Exposed for fault/attack injection: the
     * adversary suite installs rxFilter drops here to starve the
     * reassembly queue.
     */
    Link *nicLink() { return link.get(); }

    /**
     * The runtime policy controller, present when the config has a
     * `controller:` section (null otherwise); started/stopped with
     * the pollers.
     */
    PolicyController *policyController() { return controller.get(); }

    /** Write a file into the VFS (document roots, fixtures). */
    void writeFile(const std::string &path, const std::string &content);

  private:
    void init(SafetyConfig cfg, const DeployOptions &opts);

    std::unique_ptr<Machine> mach;
    std::unique_ptr<Scheduler> sched;
    LibraryRegistry reg;
    std::unique_ptr<Toolchain> tc;
    std::unique_ptr<Image> img;

    std::unique_ptr<Link> link;
    std::unique_ptr<NetStack> serverNet;
    std::unique_ptr<NetStack> clientNet;
    std::unique_ptr<LeaAllocator> leaFsAlloc;
    std::shared_ptr<RamfsNode> fsRoot;
    std::unique_ptr<Vfs> fs;
    std::unique_ptr<LibcApi> libcApi;
    std::unique_ptr<PolicyController> controller;

    bool pollersRunning = false;
    bool stopPollers = false;
};

} // namespace flexos

#endif // FLEXOS_APPS_DEPLOY_HH
