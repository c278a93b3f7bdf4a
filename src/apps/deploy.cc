#include "apps/deploy.hh"

#include "base/logging.hh"
#include "net/proto.hh"

namespace flexos {

Deployment::Deployment(const std::string &configText, DeployOptions opts)
    : reg(LibraryRegistry::standard())
{
    init(SafetyConfig::parse(configText), opts);
}

Deployment::Deployment(SafetyConfig cfg, DeployOptions opts)
    : reg(LibraryRegistry::standard())
{
    init(std::move(cfg), opts);
}

void
Deployment::init(SafetyConfig cfg, const DeployOptions &opts)
{
    // The config's `cores:` knob sizes the machine; everything below
    // (scheduler run queues, NIC RSS queues, EPT server shards) scales
    // off Machine::coreCount().
    mach = std::make_unique<Machine>(opts.timing,
                                     cfg.cores ? cfg.cores : 1);
    sched = std::make_unique<Scheduler>(*mach);
    tc = std::make_unique<Toolchain>(reg);

    cfg.heapBytes = opts.heapBytes;
    cfg.sharedHeapBytes = opts.sharedHeapBytes;
    img = tc->build(*mach, *sched, cfg);

    if (opts.withNet) {
        link = std::make_unique<Link>(*mach);
        serverNet = std::make_unique<NetStack>(*mach, *sched,
                                               link->endA(),
                                               makeIp(10, 0, 0, 1));
        clientNet = std::make_unique<NetStack>(*mach, *sched,
                                               link->endB(),
                                               makeIp(10, 0, 0, 2));
        // The client stack models the benchmark machine: its timers
        // must fire promptly relative to server virtual time.
        clientNet->baseRtoNs = 5'000'000;
        serverNet->baseRtoNs = 5'000'000;
        // Multi-core server: RSS steers each connection's frames to
        // one core's RX queue (the client stack models a separate
        // load-generator box and stays single-queue).
        if (mach->coreCount() > 1 &&
            img->config().steering == NicSteering::Rss)
            serverNet->enableRss(mach->coreCount());
    }

    if (opts.withFs) {
        // Filesystem storage comes from the fs compartment's allocator
        // (vfscore+ramfs are one component, paper 4.4) — or a Lea
        // instance for the CubicleOS baseline.
        Allocator *fsAlloc = nullptr;
        if (opts.fsAllocator == DeployOptions::FsAllocator::Lea) {
            leaFsAlloc =
                std::make_unique<LeaAllocator>(*mach, 16 * 1024 * 1024);
            fsAlloc = leaFsAlloc.get();
        } else {
            bool fsInImage = false;
            for (const auto &[lib, comp] : img->config().libraries)
                if (lib == "vfscore")
                    fsInImage = true;
            if (fsInImage)
                fsAlloc = &img->heapOf("vfscore");
        }
        fsRoot = makeRamfs(*mach, fsAlloc);
        fs = std::make_unique<Vfs>(*mach, fsRoot);
    }

    libcApi = std::make_unique<LibcApi>(*img, serverNet.get(), fs.get());

    // The control plane is opt-in: a `controller:` section builds one.
    // It starts sampling with the pollers in start().
    if (img->config().controller)
        controller = std::make_unique<PolicyController>(
            *img, *img->config().controller);
}

Deployment::~Deployment()
{
    stop();
    // Unwind any still-blocked fibers while the whole world (image,
    // network stacks, backends) is alive: their locals may hold
    // DSS frames and gate state whose destructors touch it.
    if (sched)
        sched->cancelAll();
    // Teardown order matters: the filesystem returns its blocks to the
    // vfscore compartment's allocator, so it must die before the image;
    // the image (backend threads, regions) before the scheduler.
    controller.reset();
    libcApi.reset();
    fs.reset();
    fsRoot.reset();
    img.reset();
    sched.reset();
}

void
Deployment::start()
{
    if (!serverNet || pollersRunning)
        return;
    stopPollers = false;

    // The server-side pollers are lwip code: they run in lwip's
    // compartment so their packet work is charged (and hardened)
    // there. One poller per RX queue, each pinned to its queue's core
    // (queue q's flows are serviced by core q — the RSS contract).
    bool lwipInImage = false;
    for (const auto &[lib, comp] : img->config().libraries)
        if (lib == "lwip")
            lwipInImage = true;

    std::size_t queues = serverNet->rxQueueCount();
    for (std::size_t q = 0; q < queues; ++q) {
        auto pollBody = [this, q] {
            while (!stopPollers) {
                if (serverNet->pollQueue(q))
                    sched->yield();
                else
                    serverNet->waitQueueActivity(q);
            }
        };
        std::string name = queues > 1
                               ? "lwip-poll-q" + std::to_string(q)
                               : "lwip-poll";
        Thread *t = lwipInImage ? img->spawnIn("lwip", name, pollBody)
                                : sched->spawn(name, pollBody);
        sched->pin(t, static_cast<int>(q % mach->coreCount()));
    }

    // The client poller models the load-generator machine: free, and
    // event-driven like the server pollers — a spinning free thread
    // would keep the run queues non-empty forever and starve the
    // scheduler's idle jumps that fire timers.
    Thread *cp = sched->spawn("client-poll", [this] {
        while (!stopPollers) {
            if (clientNet->pollQueue(0))
                sched->yield();
            else
                clientNet->waitQueueActivity(0);
        }
    });
    cp->freeRunning = true;
    if (controller)
        controller->start();
    pollersRunning = true;
}

void
Deployment::stop()
{
    if (!pollersRunning)
        return;
    if (controller)
        controller->stop();
    stopPollers = true;
    // Kick blocked pollers and give everyone a chance to observe the
    // flag and exit.
    if (serverNet)
        serverNet->wakePollers();
    if (clientNet)
        clientNet->wakePollers();
    sched->runUntil([] { return false; }, 256);
    pollersRunning = false;
}

void
Deployment::writeFile(const std::string &path, const std::string &content)
{
    panic_if(!fs, "deployment has no filesystem");
    // Create parent directories as needed (single level is enough for
    // the bundled workloads).
    auto slash = path.find_last_of('/');
    if (slash != std::string::npos && slash > 0)
        fs->mkdir(path.substr(0, slash));
    int fd = fs->open(path, oCreat | oWrOnly | oTrunc);
    panic_if(fd < 0, "cannot create ", path);
    fs->write(fd, content.data(), content.size());
    fs->close(fd);
}

} // namespace flexos
