/**
 * @file
 * Application-level and integration tests: RESP/Redis, HTTP/Nginx,
 * minisql (SQL, B+tree, transactions, crash recovery), iPerf — each
 * running end-to-end inside FlexOS images under different isolation
 * configurations.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>

#include "apps/deploy.hh"
#include "apps/http.hh"
#include "apps/iperf.hh"
#include "apps/minisql.hh"
#include "apps/redis.hh"
#include "base/rng.hh"

namespace flexos {
namespace {

const char *redisMpk2 = R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libredis: comp1
- newlib: comp1
- uksched: comp1
- uktime: comp1
- lwip: comp2
)";

const char *noneConfigAllApps = R"(
compartments:
- all:
    mechanism: none
    default: True
libraries:
- libredis: all
- libnginx: all
- libsqlite: all
- libiperf: all
- newlib: all
- uksched: all
- uktime: all
- lwip: all
- vfscore: all
)";

// ----------------------------------------------------------------- RESP

TEST(Resp, ParsesPipelinedCommands)
{
    RespParser p;
    std::string wire = RespParser::command({"SET", "k", "v"}) +
                       RespParser::command({"GET", "k"});
    p.feed(wire.data(), wire.size());
    auto c1 = p.next();
    auto c2 = p.next();
    ASSERT_TRUE(c1 && c2);
    EXPECT_EQ(*c1, (RespCommand{"SET", "k", "v"}));
    EXPECT_EQ(*c2, (RespCommand{"GET", "k"}));
    EXPECT_FALSE(p.next());
}

TEST(Resp, HandlesSplitFeeds)
{
    RespParser p;
    std::string wire = RespParser::command({"GET", "key:42"});
    for (char c : wire)
        p.feed(&c, 1);
    auto cmd = p.next();
    ASSERT_TRUE(cmd);
    EXPECT_EQ((*cmd)[1], "key:42");
}

TEST(Resp, RejectsGarbage)
{
    RespParser p;
    p.feed("HELLO\r\n", 7);
    EXPECT_TRUE(p.errored());
}

TEST(Resp, BinarySafeValues)
{
    RespParser p;
    std::string val("a\0b\r\nc", 6);
    std::string wire = RespParser::command({"SET", "k", val});
    p.feed(wire.data(), wire.size());
    auto cmd = p.next();
    ASSERT_TRUE(cmd);
    EXPECT_EQ((*cmd)[2], val);
}

TEST(RedisDictTest, SetGetDelete)
{
    Machine mach;
    RedisDict d(mach, 8);
    d.set("a", "1");
    d.set("b", "2");
    ASSERT_NE(d.get("a"), nullptr);
    EXPECT_EQ(*d.get("a"), "1");
    EXPECT_EQ(d.get("c"), nullptr);
    EXPECT_TRUE(d.del("a"));
    EXPECT_FALSE(d.del("a"));
    EXPECT_EQ(d.get("a"), nullptr);
    EXPECT_EQ(d.size(), 1u);
}

TEST(RedisDictTest, GrowsPastInitialCapacity)
{
    Machine mach;
    RedisDict d(mach, 8);
    for (int i = 0; i < 1000; ++i)
        d.set("key" + std::to_string(i), std::to_string(i));
    EXPECT_EQ(d.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        const std::string *v = d.get("key" + std::to_string(i));
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, std::to_string(i));
    }
}

TEST(RedisDictTest, OverwriteKeepsSize)
{
    Machine mach;
    RedisDict d(mach);
    d.set("k", "1");
    d.set("k", "2");
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(*d.get("k"), "2");
}

// ----------------------------------------------------- Redis end-to-end

TEST(RedisServerTest, ServesGetSetOverTcpUnderMpk)
{
    Deployment dep(redisMpk2);
    dep.start();
    RedisServer server(dep.libc(), 6379);
    server.start();

    std::string reply;
    Thread *cli = dep.scheduler().spawn("cli", [&] {
        TcpSocket *s = dep.clientStack().connect(makeIp(10, 0, 0, 1),
                                                 6379);
        ASSERT_NE(s, nullptr);
        std::string wire = RespParser::command({"SET", "city", "lausanne"}) +
                           RespParser::command({"GET", "city"}) +
                           RespParser::command({"GET", "nothere"}) +
                           RespParser::command({"PING"});
        s->send(wire.data(), wire.size());
        char buf[512];
        while (reply.find("PONG") == std::string::npos) {
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
        s->close();
    });
    cli->freeRunning = true;

    ASSERT_TRUE(dep.scheduler().runUntil(
        [&] { return reply.find("PONG") != std::string::npos; }));
    EXPECT_NE(reply.find("+OK"), std::string::npos);
    EXPECT_NE(reply.find("$8\r\nlausanne"), std::string::npos);
    EXPECT_NE(reply.find("$-1"), std::string::npos); // nil for missing
    EXPECT_GE(server.commandsServed(), 4u);
    // The isolation actually engaged: MPK gates were crossed.
    EXPECT_GT(dep.machine().counter("gate.mpk.dss"), 0u);
    server.stop();
    dep.stop();
}

TEST(RedisServerTest, FlushallEmptiesTheDict)
{
    Deployment dep(redisMpk2);
    dep.start();
    RedisServer server(dep.libc(), 6379);
    server.start();

    std::string reply;
    Thread *cli = dep.scheduler().spawn("cli", [&] {
        TcpSocket *s = dep.clientStack().connect(makeIp(10, 0, 0, 1),
                                                 6379);
        ASSERT_NE(s, nullptr);
        std::string wire = RespParser::command({"SET", "a", "1"}) +
                           RespParser::command({"SET", "b", "2"}) +
                           RespParser::command({"SET", "c", "3"}) +
                           RespParser::command({"DBSIZE"}) +
                           RespParser::command({"FLUSHALL"}) +
                           RespParser::command({"DBSIZE"}) +
                           RespParser::command({"GET", "a"}) +
                           RespParser::command({"PING"});
        s->send(wire.data(), wire.size());
        char buf[512];
        while (reply.find("PONG") == std::string::npos) {
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
        s->close();
    });
    cli->freeRunning = true;

    ASSERT_TRUE(dep.scheduler().runUntil(
        [&] { return reply.find("PONG") != std::string::npos; }));
    // Three SETs land, FLUSHALL answers +OK, the dict is empty after
    // it and a later GET of a flushed key misses.
    EXPECT_EQ(reply, "+OK\r\n+OK\r\n+OK\r\n:3\r\n"
                     "+OK\r\n:0\r\n$-1\r\n+PONG\r\n");
    EXPECT_EQ(server.dict().size(), 0u);
    EXPECT_EQ(server.commandsServed(), 8u);
    server.stop();
    dep.stop();
}

TEST(RedisServerTest, IncrIsCheckedUnderUbsanHardening)
{
    std::string cfg = std::string(redisMpk2);
    // Harden the application component with ubsan.
    cfg.replace(cfg.find("- libredis: comp1"), 17,
                "- libredis: comp1 [ubsan]");
    Deployment dep(cfg);
    dep.start();
    RedisServer server(dep.libc(), 6379);
    server.start();

    std::string reply;
    Thread *cli = dep.scheduler().spawn("cli", [&] {
        TcpSocket *s = dep.clientStack().connect(makeIp(10, 0, 0, 1),
                                                 6379);
        std::string wire =
            RespParser::command(
                {"SET", "n", std::to_string(INT64_MAX)}) +
            RespParser::command({"INCR", "n"});
        s->send(wire.data(), wire.size());
        char buf[256];
        while (reply.find("\r\n-ERR") == std::string::npos &&
               reply.find("overflow") == std::string::npos) {
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
        s->close();
    });
    cli->freeRunning = true;
    // The overflow must be *detected* (server replies with an error or
    // the worker records the violation), not silently wrap.
    dep.scheduler().runUntil(
        [&] { return reply.find("overflow") != std::string::npos; },
        2'000'000);
    EXPECT_NE(reply.find("overflow"), std::string::npos);
    server.stop();
    dep.stop();
}

TEST(RedisBenchmark, ProducesThroughput)
{
    Deployment dep(noneConfigAllApps);
    dep.start();
    RedisBenchmarkResult res =
        runRedisGetBenchmark(dep.image(), dep.libc(), dep.clientStack(),
                             500, 8, 50);
    EXPECT_EQ(res.requests, 500u);
    EXPECT_GT(res.requestsPerSec, 10'000.0);
    dep.stop();
}

TEST(RedisBenchmark, IsolationCostsThroughput)
{
    double baseline, isolated;
    {
        Deployment dep(noneConfigAllApps);
        dep.start();
        baseline = runRedisGetBenchmark(dep.image(), dep.libc(),
                                        dep.clientStack(), 400, 8, 50)
                       .requestsPerSec;
        dep.stop();
    }
    {
        Deployment dep(redisMpk2);
        dep.start();
        isolated = runRedisGetBenchmark(dep.image(), dep.libc(),
                                        dep.clientStack(), 400, 8, 50)
                       .requestsPerSec;
        dep.stop();
    }
    EXPECT_LT(isolated, baseline);
    EXPECT_GT(isolated, baseline * 0.3); // but not catastrophic
}

/** What one redis GET run leaves on its deployment's machine. */
struct RedisRun
{
    double requestsPerSec = 0;
    Cycles wallCycles = 0;
    std::map<std::string, std::uint64_t> counters;
};

RedisRun
runRedisOn(Deployment &dep)
{
    dep.start();
    RedisRun r;
    r.requestsPerSec = runRedisGetBenchmark(dep.image(), dep.libc(),
                                            dep.clientStack(), 400, 8, 50)
                           .requestsPerSec;
    dep.stop();
    r.wallCycles = dep.machine().wallCycles();
    r.counters = dep.machine().counters();
    return r;
}

RedisRun
soloRedisRun()
{
    Deployment dep(redisMpk2);
    return runRedisOn(dep);
}

void
expectSameRun(const RedisRun &got, const RedisRun &want)
{
    EXPECT_EQ(got.requestsPerSec, want.requestsPerSec);
    EXPECT_EQ(got.wallCycles, want.wallCycles);
    EXPECT_EQ(got.counters, want.counters);
    EXPECT_GT(got.counters.count("nic.tx"), 0u);
}

TEST(RedisBenchmark, OverlappingDeploymentsKeepTheirOwnClocks)
{
    // Each deployment charges only the machine it was built with: a
    // second live deployment neither absorbs the first one's work nor
    // depends on being destroyed in reverse construction order.
    const RedisRun solo = soloRedisRun();

    auto a = std::make_unique<Deployment>(redisMpk2);
    auto b = std::make_unique<Deployment>(redisMpk2);
    const Cycles idleCycles = b->machine().wallCycles();
    const auto idleCounters = b->machine().counters();

    expectSameRun(runRedisOn(*a), solo);
    EXPECT_EQ(b->machine().wallCycles(), idleCycles);
    EXPECT_EQ(b->machine().counters(), idleCounters);

    a.reset(); // first built, first destroyed
    EXPECT_EQ(b->machine().wallCycles(), idleCycles);
    EXPECT_EQ(b->machine().counters(), idleCounters);

    expectSameRun(runRedisOn(*b), solo);
}

TEST(RedisBenchmark, ConcurrentHostThreadsMatchTheSoloRun)
{
    // Two identical deployments simulated at once on two host threads
    // share no mutable state, so each reproduces the solo run exactly.
    const RedisRun solo = soloRedisRun();

    RedisRun runs[2];
    std::string errors[2];
    auto body = [&](int i) {
        try {
            Deployment dep(redisMpk2);
            runs[i] = runRedisOn(dep);
        } catch (const std::exception &e) {
            errors[i] = e.what();
        }
    };
    std::thread t0(body, 0);
    std::thread t1(body, 1);
    t0.join();
    t1.join();
    for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(errors[i], "");
        expectSameRun(runs[i], solo);
    }
}

// ------------------------------------------------------------------ HTTP

TEST(Http, ParserHandlesKeepAliveAndClose)
{
    HttpParser p;
    std::string wire = "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
                       "GET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
    p.feed(wire.data(), wire.size());
    auto r1 = p.next();
    auto r2 = p.next();
    ASSERT_TRUE(r1 && r2);
    EXPECT_EQ(r1->path, "/a");
    EXPECT_TRUE(r1->keepAlive);
    EXPECT_EQ(r2->path, "/b");
    EXPECT_FALSE(r2->keepAlive);
}

TEST(Http, ParserRejectsMalformedRequestLine)
{
    HttpParser p;
    p.feed("NOT-HTTP\r\n\r\n", 12);
    EXPECT_TRUE(p.errored());
}

TEST(HttpServerTest, ServesFilesFromRamfs)
{
    Deployment dep(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libnginx: comp1
- newlib: comp1
- uksched: comp1
- lwip: comp2
- vfscore: comp2
)");
    dep.writeFile("/www/index.html", "<h1>flexos</h1>");
    dep.start();
    HttpServer server(dep.libc(), "/www", 80);
    server.start();

    std::string reply;
    Thread *cli = dep.scheduler().spawn("cli", [&] {
        TcpSocket *s = dep.clientStack().connect(makeIp(10, 0, 0, 1), 80);
        std::string req = "GET / HTTP/1.1\r\nHost: t\r\n\r\n"
                          "GET /missing HTTP/1.1\r\nHost: t\r\n\r\n"
                          "GET /../etc HTTP/1.1\r\nHost: t\r\n\r\n";
        s->send(req.data(), req.size());
        char buf[1024];
        while (reply.find("403") == std::string::npos) {
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
        s->close();
    });
    cli->freeRunning = true;
    ASSERT_TRUE(dep.scheduler().runUntil(
        [&] { return reply.find("403") != std::string::npos; }));
    EXPECT_NE(reply.find("200 OK"), std::string::npos);
    EXPECT_NE(reply.find("<h1>flexos</h1>"), std::string::npos);
    EXPECT_NE(reply.find("404 Not Found"), std::string::npos);
    EXPECT_NE(reply.find("403 Forbidden"), std::string::npos);
    server.stop();
    dep.stop();
}

TEST(HttpBenchmark, ProducesThroughput)
{
    Deployment dep(noneConfigAllApps);
    dep.writeFile("/www/index.html", std::string(512, 'x'));
    dep.start();
    HttpBenchmarkResult res = runHttpBenchmark(
        dep.image(), dep.libc(), dep.clientStack(), 300);
    EXPECT_EQ(res.requests, 300u);
    EXPECT_GT(res.requestsPerSec, 10'000.0);
    dep.stop();
}

// --------------------------------------------------------------- minisql

struct SqlFixture : ::testing::Test
{
    SqlFixture()
        : dep(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libsqlite: comp1
- newlib: comp1
- uksched: comp1
- uktime: comp1
- vfscore: comp2
)",
              DeployOptions{.withNet = false})
    {
    }

    /** Run body inside libsqlite's compartment and wait for it. */
    void
    inApp(std::function<void()> body)
    {
        bool done = false;
        dep.image().spawnIn("libsqlite", "sql", [&] {
            body();
            done = true;
        });
        ASSERT_TRUE(dep.scheduler().runUntil([&] { return done; }));
    }

    Deployment dep;
};

TEST_F(SqlFixture, CreateInsertSelect)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/test.db");
        db.open();
        auto r = db.exec("CREATE TABLE t (id INTEGER, name TEXT)");
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(db.exec("INSERT INTO t VALUES (1, 'ada')").ok);
        ASSERT_TRUE(db.exec("INSERT INTO t VALUES (2, 'grace')").ok);

        r = db.exec("SELECT * FROM t");
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.rows.size(), 2u);
        EXPECT_EQ(minisql::valueToString(r.rows[0][1]), "ada");
        EXPECT_EQ(minisql::valueToString(r.rows[1][1]), "grace");

        r = db.exec("SELECT * FROM t WHERE name = 'grace'");
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.rows.size(), 1u);
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 2);

        r = db.exec("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 2);
        db.close();
    });
}

TEST_F(SqlFixture, ErrorsAreReportedNotFatal)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/e.db");
        db.open();
        EXPECT_FALSE(db.exec("SELECT * FROM missing").ok);
        EXPECT_FALSE(db.exec("DROP TABLE x").ok);
        EXPECT_FALSE(db.exec("INSERT INTO nowhere VALUES (1)").ok);
        db.exec("CREATE TABLE t (a INTEGER)");
        EXPECT_FALSE(db.exec("CREATE TABLE t (a INTEGER)").ok);
        EXPECT_FALSE(db.exec("INSERT INTO t VALUES (1, 2)").ok);
        db.close();
    });
}

TEST_F(SqlFixture, DataPersistsAcrossReopen)
{
    inApp([&] {
        {
            minisql::Database db(dep.libc(), "/p.db");
            db.open();
            db.exec("CREATE TABLE kv (k TEXT, v INTEGER)");
            for (int i = 0; i < 50; ++i)
                db.exec("INSERT INTO kv VALUES ('key" +
                        std::to_string(i) + "', " + std::to_string(i) +
                        ")");
            db.close();
        }
        minisql::Database db(dep.libc(), "/p.db");
        db.open();
        auto r = db.exec("SELECT COUNT(*) FROM kv");
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 50);
        r = db.exec("SELECT * FROM kv WHERE k = 'key7'");
        ASSERT_EQ(r.rows.size(), 1u);
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][1]), 7);
        db.close();
    });
}

TEST_F(SqlFixture, ExplicitTransactionRollback)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/txn.db");
        db.open();
        db.exec("CREATE TABLE t (x INTEGER)");
        db.exec("INSERT INTO t VALUES (1)");

        ASSERT_TRUE(db.exec("BEGIN").ok);
        db.exec("INSERT INTO t VALUES (2)");
        db.exec("INSERT INTO t VALUES (3)");
        ASSERT_TRUE(db.exec("ROLLBACK").ok);

        auto r = db.exec("SELECT COUNT(*) FROM t");
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 1);

        ASSERT_TRUE(db.exec("BEGIN").ok);
        db.exec("INSERT INTO t VALUES (2)");
        ASSERT_TRUE(db.exec("COMMIT").ok);
        r = db.exec("SELECT COUNT(*) FROM t");
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 2);
        db.close();
    });
}

TEST_F(SqlFixture, BtreeSurvivesManyInsertsAndSplits)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/big.db");
        db.open();
        db.exec("CREATE TABLE t (n INTEGER, tag TEXT)");
        const int rows = 500; // forces multiple leaf + inner splits
        for (int i = 0; i < rows; ++i) {
            auto r = db.exec("INSERT INTO t VALUES (" +
                             std::to_string(i) + ", 'row" +
                             std::to_string(i) + "')");
            ASSERT_TRUE(r.ok) << i << ": " << r.error;
        }
        auto r = db.exec("SELECT COUNT(*) FROM t");
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), rows);

        // Scan order must be rowid order.
        r = db.exec("SELECT * FROM t");
        ASSERT_EQ(r.rows.size(), static_cast<std::size_t>(rows));
        for (int i = 0; i < rows; ++i)
            EXPECT_EQ(std::get<std::int64_t>(r.rows[i][0]), i);
        db.close();
    });
}

TEST_F(SqlFixture, HotJournalRecoveryRestoresPreCrashState)
{
    inApp([&] {
        // Simulate a crash mid-transaction: journal the pre-image of a
        // page, scribble on the database, and "crash" without commit.
        {
            minisql::Database db(dep.libc(), "/crash.db");
            db.open();
            db.exec("CREATE TABLE t (x INTEGER)");
            db.exec("INSERT INTO t VALUES (42)");
            db.close();
        }
        {
            // Open a raw pager and leave a hot journal behind.
            minisql::Pager pager(dep.libc(), "/crash.db");
            pager.open();
            pager.begin();
            auto &page = pager.getMutable(0);
            page.fill(0xff); // corrupt the catalog in the cache...
            // ...and push it to disk, as a crashed writer could have.
            pager.commitDirtyForTest();
        }
        // Reopening must roll back from the journal: data intact.
        minisql::Database db(dep.libc(), "/crash.db");
        db.open();
        auto r = db.exec("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 1);
        db.close();
    });
}

TEST_F(SqlFixture, EachAutoCommitInsertWritesAndDropsJournal)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/j.db");
        db.open();
        db.exec("CREATE TABLE t (x INTEGER)");
        std::uint64_t before =
            dep.machine().counter("vfs.ops");
        db.exec("INSERT INTO t VALUES (1)");
        std::uint64_t after = dep.machine().counter("vfs.ops");
        // journal open+write+fsync+close + page writes + db fsync +
        // journal unlink: a filesystem-intensive transaction.
        EXPECT_GE(after - before, 8u);
        VfsStat st;
        EXPECT_EQ(dep.vfs().stat("/j.db-journal", st), vfsNotFound);
        db.close();
    });
}

TEST_F(SqlFixture, FullFilesystemFailsTheInsertInsteadOfLosingRows)
{
    // The fixture's vfscore heap is the 4 MB default: an INSERT loop
    // fills it. The first write ramfs cannot store must fail its exec,
    // and no exec may report ok after a vfscore allocation failed.
    inApp([&] {
        const Allocator &vfsHeap = dep.image().heapOf("vfscore");
        minisql::Database db(dep.libc(), "/full.db");
        db.open();
        ASSERT_TRUE(db.exec("CREATE TABLE t (n INTEGER, tag TEXT)").ok);
        const std::string tag(80, 'x');
        int stored = 0;
        minisql::Result r;
        for (; stored < 20000; ++stored) {
            r = db.exec("INSERT INTO t VALUES (" + std::to_string(stored) +
                        ", '" + tag + "')");
            if (!r.ok)
                break;
            ASSERT_EQ(vfsHeap.stats().failed, 0u)
                << "INSERT " << stored
                << " reported ok after a vfscore heap failure";
        }
        ASSERT_FALSE(r.ok) << "the vfscore heap never filled";
        EXPECT_NE(r.error.find("filesystem full"), std::string::npos)
            << r.error;
        EXPECT_GT(vfsHeap.stats().failed, 0u);
        db.close();

        // Every row whose INSERT reported ok reads back through a
        // fresh connection, from the VFS rather than a page cache.
        minisql::Database check(dep.libc(), "/full.db");
        check.open();
        auto count = check.exec("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(count.ok) << count.error;
        EXPECT_EQ(std::get<std::int64_t>(count.rows[0][0]), stored);
        check.close();
    });
}

TEST_F(SqlFixture, FailedWriteBackLeavesPageDirtyForRetry)
{
    // ramfs overwrites in place without allocating, so a write-back
    // comes up short only if the file shrank under the pager: truncate
    // the database behind its back and fill the filesystem. The page
    // must stay dirty, so the retried commit stores it once space is
    // free again.
    inApp([&] {
        LibcApi &libc = dep.libc();
        minisql::Pager pager(libc, "/wb.db");
        pager.open();
        std::uint32_t id = pager.allocPage();
        pager.begin();
        pager.getMutable(id)[0] = 0x5a;

        int fd = libc.open("/wb.db", oRdWr);
        ASSERT_EQ(libc.ftruncate(fd, 0), vfsOk);
        libc.close(fd);
        int filler = libc.open("/filler", oCreat | oRdWr);
        const std::vector<std::uint8_t> chunk(4096, 0);
        while (libc.write(filler, chunk.data(), chunk.size()) ==
               static_cast<long>(chunk.size())) {
        }
        libc.close(filler);

        EXPECT_THROW(pager.commit(), minisql::IoError);
        EXPECT_TRUE(pager.inTransaction());
        ASSERT_EQ(libc.unlink("/filler"), vfsOk);
        pager.commit();
        pager.close();

        std::uint8_t first = 0;
        int check = libc.open("/wb.db", oRdOnly);
        EXPECT_EQ(libc.pread(check, &first, 1,
                             std::uint64_t(id) * minisql::pageSize),
                  1);
        EXPECT_EQ(first, 0x5a);
        libc.close(check);
    });
}

/**
 * Every byte minisql stores is pinned: a seeded mix of auto-commit
 * INSERTs and explicit transactions that commit or roll back, then a
 * crashed writer's hot journal and its replay. The hashes (FNV-1a over
 * the file read through the VFS) were recorded before the pager and
 * ramfs stopped zero-filling and allocating on this path.
 */
TEST_F(SqlFixture, SeededMixAndJournalReplayKeepFileBytes)
{
    auto hashFile = [&](const std::string &path) {
        int fd = dep.vfs().open(path, oRdOnly);
        EXPECT_GE(fd, 0) << path;
        std::uint64_t hash = 0xcbf29ce484222325ull;
        std::uint8_t buf[4096];
        long n;
        while ((n = dep.vfs().read(fd, buf, sizeof(buf))) > 0) {
            for (long i = 0; i < n; ++i) {
                hash ^= buf[i];
                hash *= 0x100000001b3ull;
            }
        }
        dep.vfs().close(fd);
        return hash;
    };
    inApp([&] {
        Rng rng(36);
        int id = 0;
        auto insert = [&](minisql::Database &db) {
            std::string tag(rng.below(60), 'a');
            for (char &c : tag)
                c = static_cast<char>('a' + rng.below(26));
            ASSERT_TRUE(db.exec("INSERT INTO t VALUES (" +
                                std::to_string(id++) + ", '" + tag + "')")
                            .ok);
        };
        {
            minisql::Database db(dep.libc(), "/mix.db");
            db.open();
            ASSERT_TRUE(db.exec("CREATE TABLE t (id INTEGER, tag TEXT)").ok);
            for (int step = 0; step < 600; ++step) {
                std::uint64_t op = rng.below(10);
                if (op < 7) {
                    insert(db);
                    continue;
                }
                ASSERT_TRUE(db.exec("BEGIN").ok);
                for (std::uint64_t k = rng.range(1, 40); k > 0; --k)
                    insert(db);
                ASSERT_TRUE(db.exec(op < 9 ? "COMMIT" : "ROLLBACK").ok);
            }
            db.close();
        }
        const std::uint64_t committed = hashFile("/mix.db");
        EXPECT_EQ(committed, 0x55fd3dd44ea53f63ull);

        {
            // A writer that journals three pages out of order, then
            // crashes after writing them back.
            minisql::Pager pager(dep.libc(), "/mix.db");
            pager.open();
            std::uint32_t last = pager.pageCount() - 1;
            pager.begin();
            for (std::uint32_t page : {last, 0u, last / 2})
                pager.getMutable(page).fill(static_cast<std::uint8_t>(page));
            pager.commitDirtyForTest();
        }
        EXPECT_EQ(hashFile("/mix.db-journal"), 0xa48f65cd642b9a9dull);
        EXPECT_NE(hashFile("/mix.db"), committed);

        minisql::Database db(dep.libc(), "/mix.db");
        db.open();
        VfsStat st;
        EXPECT_EQ(dep.vfs().stat("/mix.db-journal", st), vfsNotFound);
        auto r = db.exec("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(r.ok) << r.error;
        db.close();
        EXPECT_EQ(hashFile("/mix.db"), committed);
    });
}

TEST(SqlTokenizer, HandlesLiteralsAndPunctuation)
{
    std::vector<std::string_view> toks;
    minisql::tokenize("INSERT INTO t VALUES (1, 'two words', -3);", toks);
    std::vector<std::string_view> expect{"INSERT", "INTO", "t",
                                         "VALUES", "(",    "1",
                                         ",",      "'two words",
                                         ",",      "-3",   ")",
                                         ";"};
    EXPECT_EQ(toks, expect);
}

// ----------------------------------------------------------------- iperf

TEST(Iperf, TransfersAllBytes)
{
    Deployment dep(noneConfigAllApps);
    dep.start();
    IperfResult res = runIperf(dep.image(), dep.libc(),
                               dep.clientStack(), 256 * 1024, 4096);
    EXPECT_EQ(res.bytes, 256u * 1024);
    EXPECT_GT(res.gbitPerSec, 0.01);
    dep.stop();
}

TEST(Iperf, MultiFlowAggregateHolds)
{
    double single;
    {
        Deployment dep(noneConfigAllApps);
        dep.start();
        single = runIperf(dep.image(), dep.libc(), dep.clientStack(),
                          128 * 1024, 8192)
                     .gbitPerSec;
        dep.stop();
    }
    Deployment dep(noneConfigAllApps);
    dep.start();
    IperfResult res = runIperf(dep.image(), dep.libc(),
                               dep.clientStack(), 128 * 1024, 8192,
                               8);
    dep.stop();
    // All eight flows complete in full...
    EXPECT_EQ(res.flows, 8u);
    EXPECT_EQ(res.bytes, 8u * 128 * 1024);
    // ...and on the single simulated core the aggregate goodput holds
    // near the single-flow figure rather than collapsing under the
    // extra demux/accept work.
    EXPECT_GT(res.gbitPerSec, single * 0.7);
}

TEST(RedisBenchmark, MultiConnectionServesAllRequests)
{
    Deployment dep(noneConfigAllApps);
    dep.start();
    RedisBenchmarkResult res =
        runRedisGetBenchmark(dep.image(), dep.libc(), dep.clientStack(),
                             500, 8, 50, 6379, 8);
    EXPECT_EQ(res.requests, 500u);
    EXPECT_EQ(res.connections, 8u);
    EXPECT_GT(res.requestsPerSec, 10'000.0);
    dep.stop();
}

TEST(Iperf, LargerBuffersAreFaster)
{
    auto run = [](std::size_t bufSize) {
        Deployment dep(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libiperf: comp1
- newlib: comp2
- uksched: comp2
- lwip: comp2
)");
        dep.start();
        IperfResult r = runIperf(dep.image(), dep.libc(),
                                 dep.clientStack(), 256 * 1024, bufSize);
        dep.stop();
        return r.gbitPerSec;
    };
    double small = run(64);
    double large = run(8192);
    EXPECT_GT(large, small); // batching amortizes the gate crossings
}

// ------------------------------------------- idle deployments dry up

/**
 * Spawn a free-running client that connects to the Redis server, sends
 * each command in turn and waits for its reply (one CRLF-terminated
 * line), then closes. Sets `done` once every reply arrived.
 */
Thread *
spawnRedisClient(Deployment &dep, std::vector<std::string> commands,
                 bool &done)
{
    Thread *cli = dep.scheduler().spawn("cli", [&dep, commands, &done] {
        TcpSocket *s = dep.clientStack().connect(makeIp(10, 0, 0, 1),
                                                 6379);
        ASSERT_NE(s, nullptr);
        char buf[256];
        for (const std::string &cmd : commands) {
            s->send(cmd.data(), cmd.size());
            std::string reply;
            while (reply.find("\r\n") == std::string::npos) {
                long n = s->recv(buf, sizeof(buf));
                if (n <= 0)
                    return;
                reply.append(buf, static_cast<std::size_t>(n));
            }
        }
        s->close();
        done = true;
    });
    cli->freeRunning = true;
    return cli;
}

TEST(IdleDrain, DrainAfterServeDriesUpWellUnderItsBudget)
{
    Deployment dep(redisMpk2);
    dep.start();
    RedisServer server(dep.libc(), 6379);
    server.start();
    bool done = false;
    spawnRedisClient(dep,
                     {RespParser::command({"SET", "k", "v"}),
                      RespParser::command({"GET", "k"})},
                     done);
    ASSERT_TRUE(dep.scheduler().runUntil([&] { return done; }));
    server.stop();

    // Only the pollers' heartbeats and a few cancelled retransmit
    // deadlines are left: the drain ends long before its budget.
    std::uint64_t before = dep.scheduler().switches();
    EXPECT_FALSE(dep.scheduler().runUntil([] { return false; }, 20'000));
    EXPECT_LT(dep.scheduler().switches() - before, 2'000u);
    dep.stop();
}

TEST(IdleDrain, ClientWaitingOnSilentServerDriesUpPromptly)
{
    Deployment dep(redisMpk2);
    dep.start();
    RedisServer server(dep.libc(), 6379);
    server.start();
    // Half a command: the server waits for the rest and never replies.
    bool done = false;
    spawnRedisClient(dep, {"*2\r\n$3\r\nGET\r\n"}, done);

    std::uint64_t before = dep.scheduler().switches();
    EXPECT_FALSE(
        dep.scheduler().runUntil([&] { return done; }, 200'000'000));
    EXPECT_FALSE(done);
    EXPECT_LT(dep.scheduler().switches() - before, 10'000u);
    server.stop();
    dep.stop();
}

TEST(IdleDrain, LiveRetransmitTimerKeepsALossyRunAlive)
{
    Deployment dep(redisMpk2);
    // Drop the SYN and every fourth frame after it on their way into
    // the server: each loss is recovered only by a retransmit timer,
    // armed while the client's poller may sit in a heartbeat.
    int arrived = 0;
    dep.nicLink()->endA().rxFilter = [&](NetBuf &) {
        return arrived++ % 4 != 0;
    };
    dep.start();
    RedisServer server(dep.libc(), 6379);
    server.start();
    std::vector<std::string> commands;
    for (int i = 0; i < 10; ++i)
        commands.push_back(RespParser::command(
            {"SET", "k" + std::to_string(i), "v"}));
    bool done = false;
    spawnRedisClient(dep, commands, done);

    ASSERT_TRUE(dep.scheduler().runUntil([&] { return done; }));
    EXPECT_EQ(server.commandsServed(), 10u);
    EXPECT_GT(dep.machine().counter("nic.dropped"), 0u);
    EXPECT_GT(dep.machine().counter("tcp.retransmits"), 0u);
    server.stop();
    dep.stop();
}

} // namespace
} // namespace flexos
