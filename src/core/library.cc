#include "core/library.hh"

#include "base/logging.hh"
#include "core/config.hh"

namespace flexos {

int
landingCompartment(const SafetyConfig &cfg, const LibraryRegistry &reg,
                   const std::string &callee, int from)
{
    bool tcb = reg.contains(callee) && reg.get(callee).tcb;
    for (const auto &[lib, compName] : cfg.libraries) {
        if (lib != callee)
            continue;
        if (tcb && mechanismReplicatesTcb(
                       cfg.compartments[static_cast<std::size_t>(from)]
                           .mechanism))
            return from;
        return cfg.compartmentIndex(compName);
    }
    return tcb ? from : -1;
}

void
LibraryRegistry::add(LibraryInfo info)
{
    fatal_if(libs.count(info.name), "library '", info.name,
             "' registered twice");
    order.push_back(info.name);
    libs.emplace(info.name, std::move(info));
}

const LibraryInfo &
LibraryRegistry::get(std::string_view name) const
{
    auto it = libs.find(name);
    fatal_if(it == libs.end(), "unknown library '", name, "'");
    return it->second;
}

bool
LibraryRegistry::contains(const std::string &name) const
{
    return libs.count(name) != 0;
}

bool
LibraryRegistry::isEntryPoint(std::string_view lib,
                              std::string_view fn) const
{
    return get(lib).entryPoints.count(fn) != 0;
}

LibraryRegistry
LibraryRegistry::standard()
{
    LibraryRegistry r;

    // --- Trusted computing base (paper 3.3) -----------------------------
    r.add(LibraryInfo{
        .name = "ukboot",
        .tcb = true,
        .entryPoints = {"boot"},
        .callees = {"ukalloc", "uksched"},
    });
    r.add(LibraryInfo{
        .name = "ukalloc", // memory manager
        .tcb = true,
        .entryPoints = {"malloc", "free", "calloc", "realloc"},
        .callees = {},
        .files = {"src/ukalloc/allocator.cc", "src/ukalloc/tlsf.cc",
                  "src/ukalloc/lea.cc"},
    });
    // The low-level context-switch primitive is TCB (paper 3.3), but the
    // uksched micro-library itself (run queues, sleeping, sync) is an
    // isolatable component — Figure 6 places it in its own compartment.
    r.add(LibraryInfo{
        .name = "uksched",
        .tcb = false,
        .entryPoints = {"yield", "sleep", "thread_create", "thread_join",
                        "mutex_lock", "mutex_unlock", "sem_post",
                        "sem_wait"},
        .callees = {"ukalloc", "uktime"},
        .files = {"src/uksched/scheduler.cc"},
        .sharedData = {"hostStackBottom", "hostStackSize",
                       "schedFakeStack"},
        .sharedVars = 5,
        .patchAdded = 48,
        .patchRemoved = 8,
    });

    // --- Kernel micro-libraries -----------------------------------------
    r.add(LibraryInfo{
        .name = "uktime",
        .entryPoints = {"clock_gettime", "nanosleep", "timer_arm",
                        "timer_cancel"},
        .callees = {},
        .files = {"src/uktime/clock.hh"},
        .sharedVars = 0,
        .patchAdded = 10,
        .patchRemoved = 9,
    });
    r.add(LibraryInfo{
        .name = "lwip",
        .entryPoints = {"socket", "bind", "listen", "accept", "connect",
                        "send", "recv", "close", "poll"},
        .callees = {"ukalloc", "uksched", "uktime"},
        .files = {"src/net/tcp.cc", "src/net/nic.cc",
                  "src/net/proto.cc"},
        .netFacing = true,
        .sharedVars = 23,
        .patchAdded = 542,
        .patchRemoved = 275,
    });
    r.add(LibraryInfo{
        .name = "vfscore", // vfscore + ramfs, ported as one unit (4.4)
        .entryPoints = {"open", "close", "read", "write", "pread",
                        "pwrite", "lseek", "fsync", "ftruncate", "unlink",
                        "mkdir", "rmdir", "stat", "readdir"},
        .callees = {"ukalloc", "uksched"},
        .files = {"src/vfs/vfs.cc", "src/vfs/ramfs.cc"},
        .sharedVars = 12,
        .patchAdded = 148,
        .patchRemoved = 37,
    });
    r.add(LibraryInfo{
        .name = "newlib", // libc facade
        .entryPoints = {"fprintf", "snprintf", "malloc", "free", "memcpy",
                        "strcmp", "socket_call", "fs_call", "time_call"},
        .callees = {"lwip", "vfscore", "uktime", "ukalloc", "uksched"},
        .files = {"src/apps/libc.cc"},
        .sharedVars = 0,
        .patchAdded = 0,
        .patchRemoved = 0,
    });

    // --- Ported applications (Table 1) ----------------------------------
    r.add(LibraryInfo{
        .name = "libredis",
        .entryPoints = {"redis_main", "redis_handle_conn"},
        .callees = {"newlib", "lwip", "uksched"},
        .files = {"src/apps/redis.cc"},
        .sharedVars = 16,
        .patchAdded = 279,
        .patchRemoved = 90,
    });
    r.add(LibraryInfo{
        .name = "libnginx",
        .entryPoints = {"nginx_main", "nginx_handle_conn"},
        .callees = {"newlib", "lwip", "vfscore", "uksched"},
        .files = {"src/apps/http.cc"},
        .sharedVars = 36,
        .patchAdded = 470,
        .patchRemoved = 85,
    });
    r.add(LibraryInfo{
        .name = "libsqlite",
        .entryPoints = {"sqlite_exec", "sqlite_open", "sqlite_close"},
        .callees = {"newlib", "vfscore", "uktime", "uksched"},
        .files = {"src/apps/minisql.cc"},
        .sharedVars = 24,
        .patchAdded = 199,
        .patchRemoved = 145,
    });
    r.add(LibraryInfo{
        .name = "libiperf",
        .entryPoints = {"iperf_server", "iperf_client"},
        .callees = {"newlib", "lwip", "uksched"},
        .files = {"src/apps/iperf.cc"},
        .sharedVars = 4,
        .patchAdded = 15,
        .patchRemoved = 14,
    });
    r.add(LibraryInfo{
        .name = "libopenjpg", // example untrusted parser library (3.0)
        .entryPoints = {"decode_image"},
        .callees = {"newlib"},
        .files = {"src/apps/openjpg.cc"},
        .sharedVars = 2,
        .patchAdded = 31,
        .patchRemoved = 9,
    });

    return r;
}

} // namespace flexos
