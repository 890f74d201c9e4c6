/**
 * @file
 * nvmexp_perfbench: runs one benchmark pipeline (sweep_store,
 * shipped_configs or serve_query) and prints its result as one JSON
 * line. perfbench/run.py builds this binary, runs the pipelines each
 * in its own process and assembles the benchmark's report.
 *
 * usage: nvmexp_perfbench --pipeline NAME --seed N --seconds S
 *            --trace 0|1 --root DIR --tmp DIR
 *            [--rate R] [--setups K] [--trace-out FILE] [--corrupt]
 *
 * A pipeline uses at most as many threads and connections as there are
 * CPUs in the process's affinity mask.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>

#include "bench.hh"
#include "core/parallel_sweep.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace perfbench;
using nvmexp::JsonValue;

namespace {

int
usage()
{
    std::cerr << "usage: nvmexp_perfbench --pipeline "
                 "sweep_store|shipped_configs|serve_query --seed N "
                 "--seconds S --trace 0|1 --root DIR --tmp DIR "
                 "[--rate R] [--setups K] [--trace-out FILE] "
                 "[--corrupt]\n";
    return 2;
}

/** How this binary and the library were built. */
std::map<std::string, std::string>
buildContext()
{
    std::map<std::string, std::string> context;
    context["build_type"] = PERFBENCH_BUILD_TYPE;
    context["cxx_flags"] = PERFBENCH_CXX_FLAGS;
#ifdef NDEBUG
    context["ndebug"] = "1";
#else
    context["ndebug"] = "0";
#endif
#ifdef __VERSION__
    context["compiler"] = __VERSION__;
#endif
    return context;
}

/** Per-layer self time, summed over every span of each name. */
void
printSelfTimes(std::ostream &out)
{
    auto self = Tracer::instance().selfTimesMs();
    std::map<std::string, std::pair<std::size_t, double>> byName;
    double total = 0.0;
    for (const auto &span : Tracer::instance().spans()) {
        auto &entry = byName[span.name];
        ++entry.first;
        entry.second += self[span.id];
        total += self[span.id];
    }
    std::vector<std::pair<std::string, std::pair<std::size_t, double>>>
        rows(byName.begin(), byName.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.second > b.second.second;
    });
    out << "self time by span, as measured (summed over threads and "
           "processes)\n";
    out << "  " << std::left << std::setw(24) << "span" << std::right
        << std::setw(8) << "count" << std::setw(14) << "self_ms"
        << std::setw(9) << "share\n";
    for (const auto &[name, entry] : rows) {
        out << "  " << std::left << std::setw(24) << name << std::right
            << std::setw(8) << entry.first << std::setw(14) << std::fixed
            << std::setprecision(3) << entry.second << std::setw(8)
            << std::setprecision(3) << entry.second / total << "\n";
    }
    out << std::defaultfloat;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string pipeline;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--pipeline")
            pipeline = value();
        else if (arg == "--seed")
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            options.trace = value() == "1";
        else if (arg == "--root")
            options.root = value();
        else if (arg == "--tmp")
            options.tmp = value();
        else if (arg == "--rate")
            options.rate = std::atof(value().c_str());
        else if (arg == "--setups")
            options.setups = std::max(1, std::atoi(value().c_str()));
        else if (arg == "--trace-out")
            options.traceOut = value();
        else if (arg == "--corrupt")
            options.corrupt = true;
        else
            return usage();
    }
    if (options.tmp.empty() || options.seconds <= 0.0)
        return usage();
    if (pipeline == "serve_query" && options.rate <= 0.0)
        return usage();
    cpu_set_t affinity;
    CPU_ZERO(&affinity);
    if (sched_getaffinity(0, sizeof(affinity), &affinity) == 0)
        options.jobs = std::max(1, CPU_COUNT(&affinity));
    // The probe records the CPUs it runs on now, before any pipeline
    // pins a thread.
    SpeedProbe::instance();

    // An inherited store directory would silently make the in-process
    // studies store-backed; every store here lives under --tmp.
    ::unsetenv("NVMEXP_STORE_DIR");
    nvmexp::setDefaultSweepStoreDir("");
    nvmexp::setDefaultSweepJobs(1);
    nvmexp::setQuiet(true);
    std::filesystem::create_directories(options.tmp);

    Result (*run)(const Options &) = nullptr;
    if (pipeline == "sweep_store")
        run = runSweepStore;
    else if (pipeline == "shipped_configs")
        run = runShippedConfigs;
    else if (pipeline == "serve_query")
        run = runServeQuery;
    else
        return usage();
    Result result = run(options);
    const SpeedProbe &probe = SpeedProbe::instance();
    result.facts["host.ref_ms"] = std::to_string(probe.medianRefMs());
    result.facts["host.speed"] =
        std::to_string(SpeedProbe::kNominalRefMs / probe.medianRefMs());
    result.facts["host.probes"] = std::to_string(probe.probes());
    result.facts["host.busy_probes"] = std::to_string(probe.busyProbes());

    auto context = buildContext();
    if (options.trace) {
        printSelfTimes(std::cout);
        if (!options.traceOut.empty()) {
            auto traceContext = context;
            traceContext["pipeline"] = pipeline;
            traceContext["seed"] = std::to_string(options.seed);
            traceContext["jobs"] = std::to_string(options.jobs);
            Tracer::instance().writeChrome(options.traceOut, traceContext);
        }
    }

    JsonValue metrics = JsonValue::makeObject();
    for (const auto &metric : result.metrics()) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("value", JsonValue::makeNumber(metric.value));
        entry.set("unit", JsonValue::makeString(metric.unit));
        entry.set("samples", JsonValue::makeNumber((double)metric.samples));
        if (!std::isnan(metric.raw))
            entry.set("raw", JsonValue::makeNumber(metric.raw));
        metrics.set(metric.name, std::move(entry));
    }
    JsonValue facts = JsonValue::makeObject();
    for (const auto &[key, value] : result.facts)
        facts.set(key, JsonValue::makeString(value));
    for (const auto &[key, value] : context)
        facts.set(key, JsonValue::makeString(value));
    facts.set("jobs", JsonValue::makeString(std::to_string(options.jobs)));

    JsonValue doc = JsonValue::makeObject();
    doc.set("pipeline", JsonValue::makeString(pipeline));
    doc.set("correct", JsonValue::makeBool(result.failed() == 0));
    doc.set("attempted", JsonValue::makeNumber((double)result.attempted()));
    doc.set("failed", JsonValue::makeNumber((double)result.failed()));
    doc.set("metrics", std::move(metrics));
    doc.set("facts", std::move(facts));
    std::cout << doc.dump(-1) << std::endl;
    return result.failed() == 0 ? 0 : 1;
}
