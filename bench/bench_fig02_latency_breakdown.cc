/**
 * @file
 * Fig 2: (a) running vs blocked share of a request's life for Web,
 * Feed1, Feed2, Ads1, Ads2 (Cache omitted — its concurrent paths defy
 * the split); (b) Web's blocked time decomposed into queue, scheduler,
 * and I/O latency — the thread-over-subscription signature.
 */

#include "common.hh"

using namespace softsku;
using namespace softsku::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    printBanner("Fig 2", "request latency breakdown");

    SimOptions opts = defaultSimOptions(args);
    const char *names[] = {"web", "feed1", "feed2", "ads1", "ads2"};

    std::printf("(a) running vs blocked (%%):\n\n");
    TextTable table;
    table.header({"uservice", "running", "blocked", ""});
    ThreadPoolResult webPool;
    for (const char *name : names) {
        const WorkloadProfile &service = serviceByName(name);
        const PlatformSpec &platform =
            platformByName(service.defaultPlatform);
        ServiceOperatingPoint op =
            solveOperatingPoint(service, platform, opts.seed);
        if (service.name == "web")
            webPool = op.pool;
        double running = op.pool.runningShare() * 100.0;
        double blocked = op.pool.blockedShare() * 100.0;
        table.row({service.displayName, format("%.0f", running),
                   format("%.0f", blocked),
                   stackedBarRow("", {running, blocked}, 40)});
    }
    std::printf("%s\n", table.render().c_str());
    note("Paper Fig 2a: Web 28/72, Feed1 95/5, Feed2 69/31, Ads1 62/38, "
         "Ads2 90/10.");

    std::printf("\n(b) Web's breakdown (%%):\n\n");
    TextTable webTable;
    webTable.header({"component", "share"});
    webTable.row({"Running",
                  format("%.0f", webPool.runningFraction * 100)});
    webTable.row({"Queue latency",
                  format("%.0f", webPool.queueFraction * 100)});
    webTable.row({"Scheduler latency",
                  format("%.0f", webPool.schedulerFraction * 100)});
    webTable.row({"IO latency", format("%.0f", webPool.ioFraction * 100)});
    std::printf("%s\n", webTable.render().c_str());
    note("Paper Fig 2b: Running 28, Queue 10, Scheduler 28, IO 34 — "
         "scheduler delay from worker over-subscription.");
    return 0;
}
