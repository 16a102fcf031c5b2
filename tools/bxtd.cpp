/**
 * @file
 * bxtd: the batched encode/decode daemon. Serves the framed wire
 * protocol (server/wire.h) over TCP and/or a Unix-domain socket until
 * SIGTERM/SIGINT, then drains gracefully and exits 0.
 *
 * Usage:
 *   bxtd [--listen HOST:PORT] [--unix PATH] [--shards N]
 *        [--idle-timeout MS] [--max-pending N]
 *
 * With BXT_TRACE=PATH set (`%p` expands to the pid), the exit-time
 * trace flush runs after the drain and writes the sampled request
 * lifecycles from every shard's span ring as a Chrome trace-event JSON
 * file (load it in chrome://tracing or Perfetto), like every other bxt
 * binary's trace.
 */

#include <climits>
#include <csignal>
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/parallel.h"
#include "server/server.h"
#include "telemetry/metrics.h"

namespace {

bxt::server::Server *g_server = nullptr;

void
onSignal(int)
{
    // requestStop is async-signal-safe (atomic store + pipe write).
    if (g_server != nullptr)
        g_server->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    bxt::server::ServerOptions options;
    std::string listen_spec;

    bxt::Cli cli("bxtd",
                 "batched encode/decode server for the bxt wire protocol");
    cli.add("--listen", "HOST:PORT",
            "TCP listen address (port 0 picks an ephemeral port)",
            [&](const std::string &v) { listen_spec = v; });
    cli.add("--unix", "PATH", "Unix-domain socket path",
            [&](const std::string &v) { options.unixPath = v; });
    cli.addInt("--shards", "N",
               "shared-nothing worker shards (default: hardware count)",
               options.shards, 1, bxt::maxThreads);
    cli.addInt("--idle-timeout", "MS",
               "per-connection idle timeout, -1 = forever (default 30000)",
               options.idleTimeoutMs, -1, INT_MAX);
    cli.addInt("--max-pending", "N",
               "accepted-but-unserved connection bound (default 64)",
               options.maxPending, 1);
    if (!cli.parse(argc, argv))
        return cli.exitCode();

    if (!listen_spec.empty() &&
        !bxt::parseHostPort(listen_spec, options.tcpHost, options.tcpPort)) {
        std::fprintf(stderr, "bxtd: bad --listen '%s' (want HOST:PORT)\n",
                     listen_spec.c_str());
        return 2;
    }
    if (options.tcpPort < 0 && options.unixPath.empty()) {
        std::fprintf(stderr,
                     "bxtd: nothing to serve (need --listen or --unix)\n");
        return 2;
    }

    // A server without telemetry is blind: the Stats opcode and
    // bxt_report both read the live snapshot, so enable recording even
    // when BXT_METRICS is unset in the environment.
    bxt::telemetry::setMetricsEnabled(true);

    bxt::server::Server server(options);
    std::string err;
    if (!server.start(err)) {
        std::fprintf(stderr, "bxtd: %s\n", err.c_str());
        return 1;
    }

    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    if (server.tcpPort() >= 0) {
        std::printf("bxtd: listening on tcp://%s:%d\n",
                    options.tcpHost.c_str(), server.tcpPort());
    }
    if (!options.unixPath.empty())
        std::printf("bxtd: listening on unix://%s\n",
                    options.unixPath.c_str());
    std::printf("bxtd: serving (%zu shards, max-pending %zu)\n",
                server.shardCount(), options.maxPending);
    std::fflush(stdout); // Scripts parse the resolved port from stdout.

    server.serve();

    g_server = nullptr;
    std::printf("bxtd: drained, exiting\n");
    return 0;
}
