#include "core/config.hh"

#include "celldb/tentpole.hh"
#include "core/dashboard.hh"
#include "core/parallel_sweep.hh"
#include "metrics/metric.hh"
#include "metrics/refine.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/workload.hh"

namespace nvmexp {

MemCell
resolveCellReference(const std::string &reference)
{
    std::string base = reference;
    bool mlc = false;
    if (auto pos = base.find("+MLC2"); pos != std::string::npos) {
        mlc = true;
        base = base.substr(0, pos);
    }

    CellCatalog catalog;
    MemCell cell;
    if (base == "SRAM") {
        cell = CellCatalog::sram16();
    } else if (base == "FeFET-BG") {
        cell = CellCatalog::backGatedFeFET();
    } else if (base == "RRAM-Ref") {
        cell = catalog.rramReference();
    } else if (auto pos = base.rfind("-Opt");
               pos != std::string::npos && pos + 4 == base.size()) {
        cell = catalog.optimistic(techFromName(base.substr(0, pos)));
    } else if (auto pessPos = base.rfind("-Pess");
               pessPos != std::string::npos &&
               pessPos + 5 == base.size()) {
        cell = catalog.pessimistic(
            techFromName(base.substr(0, pessPos)));
    } else {
        fatal("unknown cell reference '", reference,
              "' (expected SRAM, <Tech>-Opt, <Tech>-Pess, RRAM-Ref, "
              "or FeFET-BG, optionally +MLC2)");
    }
    return mlc ? cell.makeMlc() : cell;
}

const std::set<std::string> &
knownConfigKeys()
{
    static const std::set<std::string> keys = {
        "experiment",  "cells",       "capacities_mib",
        "word_bits",   "node_nm",     "sram_node_nm",
        "jobs",        "out_dir",     "resume",
        "batch",       "targets",     "traffic",
        "workloads",   "workload",    "reliability",
        "ecc",         "constraints", "pareto",
        "top_k",       "output_csv",  "campaign",
    };
    return keys;
}

namespace {

MemCell
customCellFromJson(const JsonValue &spec)
{
    CellCatalog catalog;
    MemCell cell;
    if (spec.has("base")) {
        cell = resolveCellReference(spec.at("base").asString());
    } else {
        cell = catalog.optimistic(
            techFromName(spec.at("tech").asString()));
    }
    cell.flavor = CellFlavor::Custom;
    cell.name = spec.stringOr("name", cell.name + "-custom");
    cell.areaF2 = spec.numberOr("area_f2", cell.areaF2);
    if (spec.has("write_pulse_ns")) {
        double pulse = spec.at("write_pulse_ns").asNumber() * 1e-9;
        cell.setPulse = pulse;
        cell.resetPulse = pulse;
    }
    if (spec.has("write_current_ua")) {
        double current = spec.at("write_current_ua").asNumber() * 1e-6;
        cell.setCurrent = current;
        cell.resetCurrent = current;
    }
    cell.writeVoltage = spec.numberOr("write_voltage", cell.writeVoltage);
    cell.readVoltage = spec.numberOr("read_voltage", cell.readVoltage);
    cell.endurance = spec.numberOr("endurance", cell.endurance);
    cell.retention = spec.numberOr("retention_sec", cell.retention);
    cell.validate();
    return cell;
}

OptTarget
targetFromName(const std::string &name)
{
    for (OptTarget target : allOptTargets())
        if (optTargetName(target) == name)
            return target;
    fatal("unknown optimization target '", name, "'");
}

TrafficPattern
trafficFromJson(const JsonValue &spec, int wordBits)
{
    std::string name = spec.stringOr("name", "traffic");
    if (spec.has("read_bytes_per_sec") ||
        spec.has("write_bytes_per_sec")) {
        return TrafficPattern::fromByteRates(
            name, spec.numberOr("read_bytes_per_sec", 0.0),
            spec.numberOr("write_bytes_per_sec", 0.0), wordBits,
            spec.numberOr("exec_time", 1.0));
    }
    if (spec.has("reads") || spec.has("writes")) {
        return TrafficPattern::fromCounts(
            name, spec.numberOr("reads", 0.0),
            spec.numberOr("writes", 0.0),
            spec.numberOr("exec_time", 1.0));
    }
    fatal("traffic entry '", name,
          "' needs byte rates or access counts");
}

/**
 * Parse the "reliability"/"ecc" block into the sweep's reliability
 * axis. Accepted forms:
 *
 *   "ecc": "secded-72-64"                       one scheme, no scrub
 *   "reliability": {"ecc": "none", ...}         one spec
 *   "reliability": {"ecc": ["none", "secded-72-64"],
 *                   "scrub_interval_sec": [0, 86400]}
 *
 * Array-valued keys sweep like cells/capacities: the axis is the
 * cross product of schemes x scrub intervals, scheme-major. Scheme
 * names and scrub intervals are validated here, so a typo fails
 * before any simulation runs.
 */
std::vector<reliability::ReliabilitySpec>
reliabilityFromJson(const JsonValue &block, const std::string &context)
{
    std::vector<std::string> schemes;
    std::vector<double> scrubs;

    if (block.isString()) {
        schemes.push_back(block.asString());
    } else if (block.isObject()) {
        for (const auto &key : block.memberNames()) {
            if (key != "ecc" && key != "scrub_interval_sec") {
                fatal(context, ": reliability block has unknown key '",
                      key, "' (expected \"ecc\" and/or "
                      "\"scrub_interval_sec\")");
            }
        }
        if (block.has("ecc")) {
            const JsonValue &ecc = block.at("ecc");
            if (ecc.isArray()) {
                for (const auto &entry : ecc.asArray())
                    schemes.push_back(entry.asString());
                if (schemes.empty())
                    fatal(context, ": reliability \"ecc\" list is "
                          "empty");
            } else {
                schemes.push_back(ecc.asString());
            }
        }
        if (block.has("scrub_interval_sec")) {
            const JsonValue &scrub = block.at("scrub_interval_sec");
            if (scrub.isArray()) {
                for (const auto &entry : scrub.asArray())
                    scrubs.push_back(entry.asNumber());
                if (scrubs.empty())
                    fatal(context, ": reliability "
                          "\"scrub_interval_sec\" list is empty");
            } else {
                scrubs.push_back(scrub.asNumber());
            }
        }
    } else {
        fatal(context, ": \"reliability\"/\"ecc\" must be a scheme "
              "name or an object with \"ecc\"/\"scrub_interval_sec\"");
    }

    if (schemes.empty())
        schemes.push_back("none");
    if (scrubs.empty())
        scrubs.push_back(0.0);

    std::vector<reliability::ReliabilitySpec> specs;
    specs.reserve(schemes.size() * scrubs.size());
    for (const auto &scheme : schemes) {
        for (double scrub : scrubs) {
            reliability::ReliabilitySpec spec;
            spec.ecc = scheme;
            spec.scrubIntervalSec = scrub;
            // Constructing the evaluator validates scheme + interval.
            reliability::ReliabilityEvaluator(spec, context);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

} // namespace

ExperimentConfig
loadExperiment(const JsonValue &doc)
{
    ExperimentConfig config;
    config.name = doc.stringOr("experiment", "experiment");
    for (const auto &key : doc.memberNames()) {
        if (!knownConfigKeys().count(key)) {
            fatal("config '", config.name, "': unknown top-level key '",
                  key, "'");
        }
    }

    // Cells: names, "study-set", or inline custom definitions.
    CellCatalog catalog;
    for (const auto &entry : doc.at("cells").asArray()) {
        if (entry.isString()) {
            if (entry.asString() == "study-set") {
                auto all = catalog.studyCells();
                config.sweep.cells.insert(config.sweep.cells.end(),
                                          all.begin(), all.end());
            } else {
                config.sweep.cells.push_back(
                    resolveCellReference(entry.asString()));
            }
        } else {
            config.sweep.cells.push_back(customCellFromJson(entry));
        }
    }
    if (config.sweep.cells.empty())
        fatal("config '", config.name, "': no cells");

    // Capacities, word width, nodes.
    config.sweep.capacitiesBytes.clear();
    for (const auto &mib : doc.at("capacities_mib").asArray())
        config.sweep.capacitiesBytes.push_back(mib.asNumber() * 1024.0 *
                                               1024.0);
    config.sweep.wordBits = (int)doc.numberOr("word_bits", 512.0);
    config.sweep.nodeNm = (int)doc.numberOr("node_nm", 22.0);
    config.sweep.sramNodeNm = (int)doc.numberOr("sram_node_nm", 16.0);

    // Worker threads: an explicit "jobs" key wins, else the process
    // default (the CLI's --jobs flag). 0 = all hardware threads.
    // Validate before the int cast: double-to-int conversion is UB
    // outside int's range, and the CLI path enforces the same bounds
    // (both go through ThreadPool::jobsInRange).
    double jobs = doc.numberOr("jobs", (double)defaultSweepJobs());
    if (!ThreadPool::jobsInRange(jobs)) {
        fatal("config '", config.name, "': \"jobs\" must be in [0, ",
              ThreadPool::kMaxThreads, "], got ", jobs);
    }
    config.sweep.jobs = (int)jobs;

    // Result store: only the config's own keys here. The CLI layers
    // its --out/--resume flags (and the $NVMEXP_STORE_DIR fallback)
    // on top of configs that leave these unset, handling one-store-
    // per-experiment isolation there.
    config.sweep.outDir = doc.stringOr("out_dir", "");
    config.sweep.resume = doc.boolOr("resume", false);

    // Batched evaluation: on unless "batch": false (or the CLI's
    // --no-batch) asks for the per-point reference path. Either path
    // produces bit-identical results.
    config.sweep.batch = doc.boolOr("batch", true);

    // Campaign block: how many shards `campaign plan` splits this
    // sweep into when --shards isn't given on the command line. The
    // shard count never affects result bytes (the merge is canonical),
    // so like jobs it lives outside the sweep fingerprint.
    if (doc.has("campaign")) {
        const JsonValue &c = doc.at("campaign");
        if (!c.isObject() || !c.has("shards") ||
            !c.at("shards").isNumber()) {
            fatal("config '", config.name, "': \"campaign\" must be "
                  "an object with a \"shards\" count");
        }
        for (const auto &key : c.memberNames()) {
            if (key != "shards") {
                fatal("config '", config.name,
                      "': unknown \"campaign\" key \"", key, "\"");
            }
        }
        std::uint64_t shards = 0;
        if (!c.at("shards").asCount(shards, 4096) || shards < 1) {
            fatal("config '", config.name, "': \"campaign\" "
                  "\"shards\" must be an integer in [1, 4096], got ",
                  c.at("shards").dump(0));
        }
        config.campaignShards = (std::size_t)shards;
    }

    // Optimization targets (default ReadEDP).
    config.sweep.targets.clear();
    if (doc.has("targets")) {
        for (const auto &t : doc.at("targets").asArray())
            config.sweep.targets.push_back(
                targetFromName(t.asString()));
    } else {
        config.sweep.targets.push_back(OptTarget::ReadEDP);
    }

    // Traffic: explicit patterns and/or a generic grid. Optional when
    // the config names registry workloads instead.
    if (doc.has("traffic")) {
        for (const auto &spec : doc.at("traffic").asArray()) {
            if (spec.isObject() && spec.stringOr("kind", "") ==
                    "generic_grid") {
                auto grid = genericTrafficGrid(
                    spec.at("read_lo").asNumber(),
                    spec.at("read_hi").asNumber(),
                    spec.at("write_lo").asNumber(),
                    spec.at("write_hi").asNumber(),
                    (int)spec.numberOr("steps", 3.0),
                    config.sweep.wordBits);
                config.sweep.traffics.insert(
                    config.sweep.traffics.end(), grid.begin(),
                    grid.end());
            } else {
                config.sweep.traffics.push_back(
                    trafficFromJson(spec, config.sweep.wordBits));
            }
        }
    }

    // Workloads: registry-dispatched traffic sources. Specs are
    // validated here (unknown names and bad parameters fail before
    // any simulation) but expanded by the sweep engine.
    if (doc.has("workloads")) {
        for (const auto &spec : doc.at("workloads").asArray()) {
            workload::validateWorkloadJson(spec);
            config.sweep.workloads.push_back(spec);
        }
    }
    if (doc.has("workload")) {
        const JsonValue &spec = doc.at("workload");
        workload::validateWorkloadJson(spec);
        config.sweep.workloads.push_back(spec);
    }
    if (config.sweep.traffics.empty() && config.sweep.workloads.empty())
        fatal("config '", config.name,
              "': needs \"traffic\" patterns or \"workloads\"");

    // Reliability axis: a "reliability" object or an "ecc" shorthand
    // (one scheme name, or the same object shape). Either promotes
    // reliability columns into the dashboard table.
    if (doc.has("reliability") && doc.has("ecc")) {
        fatal("config '", config.name, "': give either \"reliability\" "
              "or the \"ecc\" shorthand, not both");
    }
    if (doc.has("reliability") || doc.has("ecc")) {
        config.sweep.reliability = reliabilityFromJson(
            doc.at(doc.has("reliability") ? "reliability" : "ecc"),
            "config '" + config.name + "'");
        config.showReliability = true;
    }

    // Constraints: a declarative clause array
    // (["total_power<0.5", {"metric": ..., "op": ..., "bound": ...}]),
    // metric names validated at load time so bad filters fail before
    // any simulation runs.
    if (doc.has("constraints")) {
        const JsonValue &c = doc.at("constraints");
        if (!c.isArray()) {
            fatal("config '", config.name, "': \"constraints\" must "
                  "be an array of clauses such as "
                  "[\"latency_load<=1.0\", \"meets_read_bw>=1\"] "
                  "(the fixed-field object form is no longer read)");
        }
        config.applyConstraints = true;
        config.constraints = metrics::ConstraintSet::fromJson(
            c, "config '" + config.name + "'");
    }

    // Pareto front and top-k refinement over named metrics.
    if (doc.has("pareto")) {
        config.paretoMetrics = metrics::paretoMetricsFromJson(
            doc.at("pareto"), "config '" + config.name + "'");
    }
    if (doc.has("top_k")) {
        metrics::TopSpec top = metrics::topSpecFromJson(
            doc.at("top_k"), "config '" + config.name + "'");
        config.topMetric = top.metric;
        config.topK = top.k;
    }

    config.outputCsv = doc.stringOr("output_csv", "");
    return config;
}

ExperimentConfig
loadExperimentFile(const std::string &path)
{
    return loadExperiment(JsonValue::parseFile(path));
}

Table
runExperiment(const ExperimentConfig &config)
{
    auto results = runSweep(config.sweep);
    if (config.applyConstraints)
        results = config.constraints.filter(results);
    if (!config.paretoMetrics.empty()) {
        results = metrics::paretoByMetrics(
            results, config.paretoMetrics,
            "config '" + config.name + "'");
    }
    if (!config.topMetric.empty()) {
        results = metrics::topByMetric(results, config.topMetric,
                                       config.topK,
                                       "config '" + config.name + "'");
    }

    // The table is driven by the dashboard schema (core/dashboard.hh):
    // metric-backed columns evaluate their registry metric at display
    // scale; identity columns print the strings naming the design
    // point. Reliability columns appear only with show_reliability.
    std::vector<const DashboardColumn *> active;
    std::vector<std::string> headers;
    for (const auto &column : dashboardColumns()) {
        if (column.reliability && !config.showReliability)
            continue;
        active.push_back(&column);
        headers.push_back(column.header);
    }
    Table table(config.name, headers);
    for (const auto &ev : results) {
        table.row();
        for (const DashboardColumn *column : active) {
            if (!column->metric.empty()) {
                const auto &m = metrics::MetricRegistry::instance()
                    .require(column->metric, "dashboard schema");
                table.add(m.eval(ev) * column->scale);
            } else if (column->header == "Cell") {
                table.add(ev.array.cell.name);
            } else if (column->header == "Traffic") {
                table.add(ev.traffic.name);
            } else if (column->header == "Viable") {
                table.add(ev.viable() ? "yes" : "no");
            } else if (column->header == "ECC") {
                table.add(ev.reliability.scheme);
            } else if (column->header == "Scrub[s]") {
                table.add(ev.reliability.scrubIntervalSec);
            } else {
                panic("dashboard schema: identity column '",
                      column->header, "' has no accessor");
            }
        }
    }
    if (!config.outputCsv.empty())
        table.writeCsv(config.outputCsv);
    return table;
}

} // namespace nvmexp
