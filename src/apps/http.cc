#include "apps/http.hh"

#include "base/logging.hh"
#include "base/strutil.hh"

namespace flexos {

namespace {

/** Modelled per-request parse/dispatch cost. */
constexpr Cycles requestCost = 150;

} // namespace

void
HttpParser::feed(const char *data, std::size_t n)
{
    buf.append(data, n);
    std::size_t end;
    while ((end = buf.find("\r\n\r\n")) != std::string::npos) {
        std::string head = buf.substr(0, end);
        buf.erase(0, end + 4);

        std::vector<std::string> lines = split(head, '\n');
        if (lines.empty()) {
            hasError = true;
            return;
        }
        std::vector<std::string> parts = splitWs(trim(lines[0]));
        if (parts.size() != 3) {
            hasError = true;
            return;
        }
        HttpRequest req;
        req.method = parts[0];
        req.path = parts[1];
        req.version = parts[2];
        req.keepAlive = req.version == "HTTP/1.1";
        for (std::size_t i = 1; i < lines.size(); ++i) {
            std::string line = toLower(trim(lines[i]));
            if (line == "connection: close")
                req.keepAlive = false;
            else if (line == "connection: keep-alive")
                req.keepAlive = true;
        }
        ready.push_back(std::move(req));
    }
}

std::optional<HttpRequest>
HttpParser::next()
{
    if (ready.empty())
        return std::nullopt;
    HttpRequest req = std::move(ready.front());
    ready.erase(ready.begin());
    return req;
}

std::string
httpResponseHead(int status, const std::string &reason,
                 std::size_t contentLength, bool keepAlive)
{
    std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                       reason + "\r\n";
    head += "Server: flexos-nginx\r\n";
    head += "Content-Length: " + std::to_string(contentLength) + "\r\n";
    head += keepAlive ? "Connection: keep-alive\r\n"
                      : "Connection: close\r\n";
    head += "\r\n";
    return head;
}

HttpServer::HttpServer(LibcApi &libcApi, std::string root,
                       std::uint16_t serverPort)
    : libc(libcApi), docRoot(std::move(root)), port(serverPort)
{
}

void
HttpServer::start()
{
    libc.image().spawnIn("libnginx", "nginx-accept",
                         [this] { acceptLoop(); });
}

void
HttpServer::acceptLoop()
{
    TcpSocket *listener = libc.listen(port);
    while (!stopping) {
        TcpSocket *conn = libc.accept(listener);
        if (!conn)
            break;
        libc.image().spawnIn("libnginx", "nginx-conn",
                             [this, conn] { serveConnection(conn); });
    }
}

void
HttpServer::serveConnection(TcpSocket *conn)
{
    HttpParser parser;
    char buf[4096];
    bool keepAlive = true;
    while (!stopping && keepAlive) {
        long n = libc.recv(conn, buf, sizeof(buf));
        if (n <= 0)
            break;
        parser.feed(buf, static_cast<std::size_t>(n));
        if (parser.errored()) {
            std::string resp =
                httpResponseHead(400, "Bad Request", 0, false);
            libc.send(conn, resp.data(), resp.size());
            break;
        }
        std::string out;
        while (auto req = parser.next())
            out += handle(*req, keepAlive);
        if (!out.empty())
            libc.send(conn, out.data(), out.size());
    }
    libc.closeSocket(conn);
}

std::string
HttpServer::handle(const HttpRequest &req, bool &keepAlive)
{
    libc.image().machine().consume(requestCost);
    ++served;
    keepAlive = req.keepAlive;

    if (req.method != "GET" && req.method != "HEAD")
        return httpResponseHead(405, "Method Not Allowed", 0, keepAlive);

    // Path sanitization: no escapes from the document root.
    if (req.path.find("..") != std::string::npos)
        return httpResponseHead(403, "Forbidden", 0, keepAlive);
    std::string path = docRoot + (req.path == "/" ? "/index.html"
                                                  : req.path);

    VfsStat st;
    if (libc.stat(path, st) != vfsOk || st.type != VnodeType::Regular)
        return httpResponseHead(404, "Not Found", 0, keepAlive);

    std::string resp = httpResponseHead(
        200, "OK", static_cast<std::size_t>(st.size), keepAlive);
    if (req.method == "HEAD")
        return resp;

    int fd = libc.open(path, oRdOnly);
    if (fd < 0)
        return httpResponseHead(500, "Internal Server Error", 0,
                                keepAlive);
    char fileBuf[4096];
    long n;
    while ((n = libc.read(fd, fileBuf, sizeof(fileBuf))) > 0)
        resp.append(fileBuf, static_cast<std::size_t>(n));
    libc.close(fd);
    return resp;
}

HttpBenchmarkResult
runHttpBenchmark(Image &img, LibcApi &serverLibc, NetStack &clientStack,
                 std::uint64_t requests, const std::string &path,
                 unsigned pipeline, std::uint16_t port)
{
    Scheduler &sched = img.scheduler();
    Machine &mach = img.machine();

    HttpServer server(serverLibc, "/www", port);
    server.start();

    bool clientDone = false;
    std::uint64_t gotReplies = 0;
    Cycles startCycles = 0;

    Thread *client = sched.spawn("wrk", [&] {
        TcpSocket *s =
            clientStack.connect(serverLibc.netstack()->ip(), port);
        panic_if(!s, "wrk could not connect");

        std::string request = "GET " + path + " HTTP/1.1\r\n"
                              "Host: bench\r\n"
                              "Connection: keep-alive\r\n\r\n";
        // Wall clock, not this core's clock: on SMP the reply
        // loop and the servers run on different cores (see iperf.cc).
        startCycles = mach.wallCycles();
        std::uint64_t sent = 0;
        std::string reply;
        char buf[8192];
        while (gotReplies < requests) {
            while (sent < requests && sent - gotReplies < pipeline) {
                s->send(request.data(), request.size());
                ++sent;
            }
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
            // Count complete responses by Content-Length framing.
            while (true) {
                std::size_t headEnd = reply.find("\r\n\r\n");
                if (headEnd == std::string::npos)
                    break;
                std::size_t clAt = reply.find("Content-Length: ");
                if (clAt == std::string::npos || clAt > headEnd)
                    break;
                long contentLen;
                std::size_t lineEnd = reply.find("\r\n", clAt);
                if (!parseInt(reply.substr(clAt + 16,
                                           lineEnd - clAt - 16),
                              contentLen))
                    break;
                std::size_t total =
                    headEnd + 4 + static_cast<std::size_t>(contentLen);
                if (reply.size() < total)
                    break;
                reply.erase(0, total);
                ++gotReplies;
            }
        }
        s->close();
        clientDone = true;
    });
    client->freeRunning = true;

    bool ok = sched.runUntil([&] { return clientDone; }, 200'000'000);
    panic_if(!ok, "http benchmark did not complete");
    server.stop();

    HttpBenchmarkResult res;
    res.requests = gotReplies;
    res.seconds = static_cast<double>(mach.wallCycles() - startCycles) /
                  (mach.timing.cpuGhz * 1e9);
    res.requestsPerSec =
        res.seconds > 0 ? static_cast<double>(res.requests) / res.seconds
                        : 0;
    return res;
}

} // namespace flexos
