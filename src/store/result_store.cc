#include "store/result_store.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>

#include "metrics/metric.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace nvmexp {
namespace store {

JsonValue
StoreStats::toJson() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("format", JsonValue::makeNumber(kFormatVersion));
    v.set("cache_hits", JsonValue::makeNumber((double)cacheHits));
    v.set("cache_misses", JsonValue::makeNumber((double)cacheMisses));
    v.set("cache_stores", JsonValue::makeNumber((double)cacheStores));
    v.set("checkpoint_loaded",
          JsonValue::makeNumber((double)checkpointLoaded));
    v.set("checkpoint_computed",
          JsonValue::makeNumber((double)checkpointComputed));
    return v;
}

StoreStats
StoreStats::fromJson(const JsonValue &doc)
{
    std::uint64_t format = 0;
    if (!doc.at("format").asCount(format) || format != kFormatVersion) {
        fatal("store: stats written with format ",
              doc.at("format").dump(0), ", this build reads format ",
              kFormatVersion);
    }
    auto counter = [&](const char *key) {
        std::uint64_t value = 0;
        if (!doc.at(key).asCount(value)) {
            fatal("store: stats \"", key,
                  "\" must be a non-negative integer, got ",
                  doc.at(key).dump(0));
        }
        return value;
    };
    StoreStats s;
    s.cacheHits = counter("cache_hits");
    s.cacheMisses = counter("cache_misses");
    s.cacheStores = counter("cache_stores");
    s.checkpointLoaded = counter("checkpoint_loaded");
    s.checkpointComputed = counter("checkpoint_computed");
    return s;
}

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001B3ull;
    }
    return hash;
}

namespace {

std::string
hexHash(const std::string &text)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)fnv1a64(text));
    return buffer;
}

/** Typed member guards for documents that may be corrupt: the
 *  fatal()-based accessors must never run on untrusted shapes. */
bool
hasString(const JsonValue &doc, const std::string &key)
{
    return doc.isObject() && doc.has(key) && doc.at(key).isString();
}

bool
hasNumber(const JsonValue &doc, const std::string &key)
{
    return doc.isObject() && doc.has(key) && doc.at(key).isNumber();
}

bool
hasObject(const JsonValue &doc, const std::string &key)
{
    return doc.isObject() && doc.has(key) && doc.at(key).isObject();
}

} // namespace

std::string
sweepFingerprint(const SweepConfig &config)
{
    JsonValue v = JsonValue::makeObject();
    v.set("format", JsonValue::makeNumber(kFormatVersion));
    JsonValue cells = JsonValue::makeArray();
    for (const auto &cell : config.cells)
        cells.append(toJson(cell));
    v.set("cells", std::move(cells));
    JsonValue capacities = JsonValue::makeArray();
    for (double capacity : config.capacitiesBytes)
        capacities.append(JsonValue::makeNumber(capacity));
    v.set("capacities_bytes", std::move(capacities));
    JsonValue targets = JsonValue::makeArray();
    for (OptTarget target : config.targets)
        targets.append(JsonValue::makeString(optTargetName(target)));
    v.set("targets", std::move(targets));
    JsonValue traffics = JsonValue::makeArray();
    for (const auto &traffic : config.traffics)
        traffics.append(toJson(traffic));
    v.set("traffics", std::move(traffics));
    // The reliability axis changes slot count and row annotations, so
    // it guards checkpoint reuse like any other sweep dimension. An
    // empty axis fingerprints as its implicit single default spec —
    // spelling out {ecc: "none"} and omitting the block are the same
    // sweep.
    JsonValue rel = JsonValue::makeArray();
    if (config.reliability.empty()) {
        rel.append(reliability::ReliabilitySpec{}.toJson());
    } else {
        for (const auto &spec : config.reliability)
            rel.append(spec.toJson());
    }
    v.set("reliability", std::move(rel));
    v.set("word_bits", JsonValue::makeNumber(config.wordBits));
    v.set("node_nm", JsonValue::makeNumber(config.nodeNm));
    v.set("sram_node_nm", JsonValue::makeNumber(config.sramNodeNm));
    return hexHash(v.dump(-1));
}

ResultStore::ResultStore(std::string dir, std::string cacheDir)
    : dir_(std::move(dir)),
      cacheDir_(cacheDir.empty() ? dir_ + "/cache" : std::move(cacheDir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (!ec)
        std::filesystem::create_directories(cacheDir_, ec);
    if (ec) {
        fatal("result store: cannot create '", dir_, "' (cache '",
              cacheDir_, "'): ", ec.message());
    }
}

std::string
ResultStore::characterizationKey(const MemCell &cell,
                                 const ArrayConfig &config,
                                 OptTarget target)
{
    JsonValue v = JsonValue::makeObject();
    v.set("format", JsonValue::makeNumber(kFormatVersion));
    v.set("cell", toJson(cell));
    v.set("capacity_bytes",
          JsonValue::makeNumber(config.capacityBytes));
    v.set("word_bits", JsonValue::makeNumber(config.wordBits));
    v.set("node_nm", JsonValue::makeNumber(config.nodeNm));
    v.set("min_area_efficiency",
          JsonValue::makeNumber(config.minAreaEfficiency));
    v.set("max_banks", JsonValue::makeNumber(config.maxBanks));
    v.set("target", JsonValue::makeString(optTargetName(target)));
    return v.dump(-1);
}

std::string
ResultStore::cachePath(const std::string &key) const
{
    return cacheDir_ + "/" + hexHash(key) + ".json";
}

ResultStore::CacheOutcome
ResultStore::lookupArray(const std::string &key, ArrayResult &out)
{
    CacheOutcome outcome = CacheOutcome::Miss;
    std::string path = cachePath(key);
    std::ifstream in(path);
    std::ostringstream buffer;
    if (in)
        buffer << in.rdbuf();
    // A truncated or corrupt entry (disk trouble, torn copy) degrades
    // to a miss and gets recomputed and overwritten — the cache is an
    // optimization, never a correctness or availability dependency.
    // The non-fatal parse plus the byte-exact comparison of the full
    // stored key covers every realistic corruption; the fatal()
    // parser never sees untrusted bytes.
    JsonValue doc;
    if (in && JsonValue::tryParse(buffer.str(), doc) &&
        hasString(doc, "key") && doc.at("key").asString() == key) {
        if (doc.has("invalid") && doc.at("invalid").isBool() &&
            doc.at("invalid").asBool()) {
            outcome = CacheOutcome::HitInvalid;
        } else if (hasObject(doc, "array")) {
            out = arrayResultFromJson(doc.at("array"));
            outcome = CacheOutcome::Hit;
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (outcome == CacheOutcome::Miss)
        ++stats_.cacheMisses;
    else
        ++stats_.cacheHits;
    return outcome;
}

namespace {

/** Write-then-rename so readers never observe a torn entry. The tmp
 *  name is unique per writer (pid + counter): concurrent writers of
 *  the same key — duplicate cells in one sweep, or two processes
 *  sharing a cache directory — each rename a complete file, and
 *  last-rename-wins leaves a valid entry either way. */
void
writeAtomically(const std::string &path, const JsonValue &doc)
{
    static std::atomic<std::uint64_t> counter{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
        "." + std::to_string(counter.fetch_add(1));
    doc.writeFile(tmp, -1);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        fatal("result store: cannot move '", tmp, "': ", ec.message());
}

} // namespace

void
ResultStore::storeArray(const std::string &key, const ArrayResult &array)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("key", JsonValue::makeString(key));
    doc.set("array", toJson(array));
    writeAtomically(cachePath(key), doc);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cacheStores;
}

void
ResultStore::storeInvalid(const std::string &key)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("key", JsonValue::makeString(key));
    doc.set("invalid", JsonValue::makeBool(true));
    writeAtomically(cachePath(key), doc);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cacheStores;
}

namespace {

JsonValue
checkpointHeader(const std::string &fingerprint, std::size_t slots)
{
    JsonValue header = JsonValue::makeObject();
    header.set("format", JsonValue::makeNumber(kFormatVersion));
    header.set("fingerprint", JsonValue::makeString(fingerprint));
    header.set("slots", JsonValue::makeNumber((double)slots));
    return header;
}

} // namespace

std::string
checkpointHeaderLine(const std::string &fingerprint, std::size_t slots)
{
    return checkpointHeader(fingerprint, slots).dump(-1);
}

CheckpointScan
scanCheckpoint(const std::string &dir)
{
    CheckpointScan scan;
    std::ifstream in(dir + "/checkpoint.jsonl");
    std::string line;
    JsonValue header;
    if (in && std::getline(in, line) &&
        JsonValue::tryParse(line, header)) {
        scan.headerParsed = true;
        std::uint64_t format = 0, slots = 0;
        scan.headerOk = hasNumber(header, "format") &&
            header.at("format").asCount(format, INT_MAX) &&
            hasString(header, "fingerprint") &&
            hasNumber(header, "slots") &&
            header.at("slots").asCount(slots);
        if (scan.headerOk) {
            scan.format = (int)format;
            scan.fingerprint = header.at("fingerprint").asString();
            scan.slots = (std::size_t)slots;
        }
    }
    if (!scan.headerOk)
        return scan;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        // The last line of an interrupted run may be torn at any
        // byte; only lines that parse and carry the expected members
        // (a whole-number slot among them) are trusted.
        JsonValue entry;
        std::uint64_t slot = 0;
        if (!JsonValue::tryParse(line, entry) ||
            !hasNumber(entry, "slot") ||
            !entry.at("slot").asCount(slot) ||
            !hasObject(entry, "result")) {
            warn("result store: skipping torn checkpoint line");
            continue;
        }
        if (slot < scan.slots) {
            scan.entries.push_back(
                CheckpointEntry{(std::size_t)slot, line, entry.at("result")});
        }
    }
    return scan;
}

std::map<std::size_t, EvalResult>
ResultStore::openCheckpoint(const std::string &fingerprint,
                            std::size_t slots, bool resume)
{
    std::string path = dir_ + "/checkpoint.jsonl";
    std::map<std::size_t, EvalResult> done;

    if (resume) {
        CheckpointScan scan = scanCheckpoint(dir_);
        bool match = scan.headerOk && scan.format == kFormatVersion &&
            scan.fingerprint == fingerprint && scan.slots == slots;
        if (match) {
            for (const auto &entry : scan.entries)
                done[entry.slot] = evalResultFromJson(entry.result);
        } else if (scan.headerParsed) {
            warn("result store: checkpoint in '", dir_,
                 "' belongs to a different sweep; restarting");
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    stats_.checkpointLoaded = done.size();
    if (!done.empty()) {
        // Rewrite the journal from the validated entries before
        // appending: the original file may end in a torn, newline-less
        // partial write that a plain append would merge with the next
        // entry, corrupting it for any later resume.
        std::string tmp = path + ".tmp";
        {
            std::ofstream out(tmp, std::ios::trunc);
            out << checkpointHeader(fingerprint, slots).dump(-1) << '\n';
            for (const auto &[slot, result] : done) {
                JsonValue entry = JsonValue::makeObject();
                entry.set("slot", JsonValue::makeNumber((double)slot));
                entry.set("result", toJson(result));
                out << entry.dump(-1) << '\n';
            }
            if (!out.flush())
                fatal("result store: cannot write '", tmp, "'");
        }
        std::error_code ec;
        std::filesystem::rename(tmp, path, ec);
        if (ec) {
            fatal("result store: cannot move '", tmp, "': ",
                  ec.message());
        }
        checkpoint_.open(path, std::ios::app);
    } else {
        checkpoint_.open(path, std::ios::trunc);
        checkpoint_ << checkpointHeader(fingerprint, slots).dump(-1)
                    << '\n';
        checkpoint_.flush();
    }
    if (!checkpoint_)
        fatal("result store: cannot write '", path, "'");
    return done;
}

void
ResultStore::checkpointSlot(std::size_t slot, const EvalResult &result)
{
    JsonValue entry = JsonValue::makeObject();
    entry.set("slot", JsonValue::makeNumber((double)slot));
    entry.set("result", toJson(result));
    std::string line = entry.dump(-1);
    std::lock_guard<std::mutex> lock(mutex_);
    checkpoint_ << line << '\n';
    checkpoint_.flush();
    ++stats_.checkpointComputed;
}

void
ResultStore::closeCheckpoint()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (checkpoint_.is_open())
        checkpoint_.close();
}

const std::vector<CsvColumn> &
resultCsvColumns()
{
    // Identity columns (empty metric) name the design point; every
    // other column evaluates its registry metric, which keeps the
    // header vocabulary, the row values, and --filter/--pareto keys
    // in one system. Headers keep their unit suffixes for external
    // dashboard compatibility.
    static const std::vector<CsvColumn> columns = {
        {"cell", ""},
        {"tech", ""},
        {"traffic", ""},
        {"capacity_bytes", ""},
        {"word_bits", ""},
        {"node_nm", ""},
        {"read_latency_s", "read_latency"},
        {"write_latency_s", "write_latency"},
        {"read_energy_j", "read_energy"},
        {"write_energy_j", "write_energy"},
        {"leakage_w", "leakage"},
        {"area_m2", "area_m2"},
        {"read_bandwidth_bps", "read_bandwidth"},
        {"write_bandwidth_bps", "write_bandwidth"},
        {"dynamic_power_w", "dynamic_power"},
        {"total_power_w", "total_power"},
        {"latency_load", "latency_load"},
        {"lifetime_sec", "lifetime_sec"},
        {"meets_read_bw", "meets_read_bw"},
        {"meets_write_bw", "meets_write_bw"},
        {"viable", "viable"},
        {"ecc_scheme", ""},
        {"scrub_interval_sec", ""},
        {"raw_ber", "raw_ber"},
        {"scrubbed_ber", "scrubbed_ber"},
        {"uncorrectable_word_rate", "uncorrectable_word_rate"},
        {"uncorrectable_image_rate", "uncorrectable_image_rate"},
        {"ecc_overhead", "ecc_overhead"},
    };
    return columns;
}

namespace {

/** Value of one identity (non-metric) CSV column. Unknown headers are
 *  a programming error: the schema and this accessor ship together. */
std::string
identityCsvValue(const std::string &header, const EvalResult &r)
{
    auto num = [](double v) { return JsonValue::formatNumber(v); };
    if (header == "cell")
        return Table::csvEscape(r.array.cell.name);
    if (header == "tech")
        return Table::csvEscape(techName(r.array.cell.tech));
    if (header == "traffic")
        return Table::csvEscape(r.traffic.name);
    if (header == "capacity_bytes")
        return num(r.array.capacityBytes);
    if (header == "word_bits")
        return num(r.array.wordBits);
    if (header == "node_nm")
        return num(r.array.nodeNm);
    if (header == "ecc_scheme")
        return Table::csvEscape(r.reliability.scheme);
    if (header == "scrub_interval_sec")
        return num(r.reliability.scrubIntervalSec);
    panic("results.csv schema: identity column '", header,
          "' has no accessor");
}

} // namespace

std::string
serializeResults(const std::vector<EvalResult> &results)
{
    return toJson(results).dump(2) + "\n";
}

void
ResultStore::writeResults(const std::vector<EvalResult> &results)
{
    // serializeResults, not writeFile: the query server's responses
    // must be byte-identical to this artifact for the same rows, so
    // both go through the one serializer.
    std::string jsonPath = dir_ + "/results.json";
    std::ofstream json(jsonPath);
    if (!json)
        fatal("result store: cannot write '", jsonPath, "'");
    json << serializeResults(results);
    if (!json.flush())
        fatal("result store: failed writing '", jsonPath, "'");

    std::string path = dir_ + "/results.csv";
    std::ofstream csv(path);
    if (!csv)
        fatal("result store: cannot write '", path, "'");

    const auto &columns = resultCsvColumns();
    // Resolve the metric-backed columns once, not per row.
    std::vector<const metrics::Metric *> accessors(columns.size(),
                                                   nullptr);
    for (std::size_t c = 0; c < columns.size(); ++c)
        if (!columns[c].metric.empty())
            accessors[c] = &metrics::MetricRegistry::instance().require(
                columns[c].metric, "results.csv schema");
    for (std::size_t c = 0; c < columns.size(); ++c)
        csv << (c ? "," : "") << columns[c].header;
    csv << '\n';
    for (const auto &r : results) {
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (c)
                csv << ',';
            if (accessors[c]) {
                csv << JsonValue::formatNumber(accessors[c]->eval(r));
            } else {
                csv << identityCsvValue(columns[c].header, r);
            }
        }
        csv << '\n';
    }
    if (!csv.flush())
        fatal("result store: failed writing '", path, "'");
}

void
ResultStore::writeStats()
{
    writeStats(stats());
}

void
ResultStore::writeStats(const StoreStats &stats)
{
    stats.toJson().writeFile(dir_ + "/stats.json");
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::vector<EvalResult>
loadResults(const std::string &dir)
{
    return evalResultsFromJson(
        JsonValue::parseFile(dir + "/results.json"));
}

StoreStats
loadStats(const std::string &dir)
{
    return StoreStats::fromJson(
        JsonValue::parseFile(dir + "/stats.json"));
}

JsonValue
StoreQuery::toJson() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("format", JsonValue::makeNumber(kFormatVersion));
    if (!constraints.empty())
        v.set("constraints", constraints.toJson());
    if (!paretoMetrics.empty()) {
        JsonValue pareto = JsonValue::makeArray();
        for (const auto &name : paretoMetrics)
            pareto.append(JsonValue::makeString(name));
        v.set("pareto", std::move(pareto));
    }
    if (!topMetric.empty()) {
        JsonValue top = JsonValue::makeObject();
        top.set("metric", JsonValue::makeString(topMetric));
        top.set("k", JsonValue::makeNumber((double)topK));
        v.set("top_k", std::move(top));
    }
    return v;
}

StoreQuery
StoreQuery::fromJson(const JsonValue &doc)
{
    if (!doc.isObject())
        fatal("store query: document must be a JSON object, got ",
              doc.dump(0));
    // Reject unknown keys outright, mirroring the config front-end's
    // top-level vocabulary: a typo'd key ("paretto") would otherwise
    // deserialize as the match-everything query and silently return
    // the entire store.
    static const char *const known[] = {"format", "constraints",
                                        "pareto", "top_k"};
    for (const auto &key : doc.memberNames()) {
        if (std::find_if(std::begin(known), std::end(known),
                         [&](const char *k) { return key == k; }) ==
            std::end(known)) {
            fatal("store query: unknown key '", key,
                  "' (known keys: constraints pareto top_k format)");
        }
    }
    if (doc.has("format")) {
        if (!doc.at("format").isNumber()) {
            fatal("store query: \"format\" must be the numeric store "
                  "format version");
        }
        std::uint64_t format = 0;
        if (!doc.at("format").asCount(format) ||
            format != kFormatVersion) {
            fatal("store query: written with format ",
                  doc.at("format").dump(0),
                  ", this build reads format ", kFormatVersion);
        }
    }
    StoreQuery query;
    if (doc.has("constraints")) {
        query.constraints = metrics::ConstraintSet::fromJson(
            doc.at("constraints"), "store query");
    }
    if (doc.has("pareto")) {
        query.paretoMetrics = metrics::paretoMetricsFromJson(
            doc.at("pareto"), "store query");
    }
    if (doc.has("top_k")) {
        metrics::TopSpec top = metrics::topSpecFromJson(
            doc.at("top_k"), "store query");
        query.topMetric = top.metric;
        query.topK = top.k;
    }
    return query;
}

std::vector<EvalResult>
applyQuery(const std::vector<EvalResult> &results,
           const StoreQuery &query)
{
    std::vector<EvalResult> out = query.constraints.filter(results);
    if (!query.paretoMetrics.empty())
        out = metrics::paretoByMetrics(out, query.paretoMetrics,
                                       "store query");
    if (!query.topMetric.empty())
        out = metrics::topByMetric(out, query.topMetric, query.topK,
                                   "store query");
    return out;
}

std::vector<EvalResult>
queryStore(const std::string &dir, const StoreQuery &query)
{
    return applyQuery(loadResults(dir), query);
}

} // namespace store
} // namespace nvmexp
