/**
 * @file
 * The seeded design space shared by the sweep_store and serve_query
 * pipelines, and the store-artifact comparison both rely on.
 */

#ifndef NVMEXP_PERFBENCH_FIXTURES_HH
#define NVMEXP_PERFBENCH_FIXTURES_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "reliability/reliability.hh"
#include "util/random.hh"

namespace perfbench {

/** Traffic patterns in the seeded sweep. */
constexpr int kSweepTraffics = 9;

/**
 * The campaign-sized sweep: 4 catalog cells x 2 capacities x 2 targets
 * (16 arrays) x 9 seeded traffic patterns x a 16-spec reliability axis
 * (4 ECC schemes x 4 scrub intervals) = 2304 evaluation slots. The
 * cells, capacities and axis are fixed, so every seed costs the same
 * characterization and emits the same number of rows; the seed draws
 * the traffic rates, which change every row's values.
 */
inline nvmexp::SweepConfig
seededSweep(std::uint64_t seed)
{
    using namespace nvmexp;
    CellCatalog catalog;
    SweepConfig config;
    config.cells = {catalog.optimistic(CellTech::STT),
                    catalog.pessimistic(CellTech::STT),
                    catalog.optimistic(CellTech::RRAM),
                    CellCatalog::sram16()};
    config.capacitiesBytes = {2.0 * 1024 * 1024, 8.0 * 1024 * 1024};
    config.targets = {OptTarget::ReadEDP, OptTarget::Leakage};
    Rng rng(seed ^ 0x5EEDF00Dull);
    for (int i = 0; i < kSweepTraffics; ++i) {
        // Log-uniform read rate over 1e8..2e10 B/s and a write share
        // over 1e-3..1 of it: light caches through write-heavy logs.
        double read = 1e8 * std::pow(200.0, rng.uniform());
        double write = read * std::pow(1000.0, rng.uniform() - 1.0);
        config.traffics.push_back(TrafficPattern::fromByteRates(
            "traffic" + std::to_string(i), read, write, config.wordBits));
    }
    for (const char *ecc :
         {"none", "secded-72-64", "dec-78-64", "tec-85-64"}) {
        for (double scrub : {0.0, 600.0, 3600.0, 86400.0}) {
            reliability::ReliabilitySpec spec;
            spec.ecc = ecc;
            spec.scrubIntervalSec = scrub;
            config.reliability.push_back(spec);
        }
    }
    return config;
}

/** Evaluation slots of a sweep config with explicit traffics. */
inline std::size_t
sweepSlots(const nvmexp::SweepConfig &config)
{
    return config.cells.size() * config.capacitiesBytes.size() *
        config.targets.size() * config.traffics.size() *
        std::max<std::size_t>(1, config.reliability.size());
}

/**
 * A store's result artifacts in comparable form. The journal is kept
 * canonical — header first, entry lines sorted — because worker
 * threads append entries in completion order; its set of lines, not
 * their order, is the store's contract.
 */
struct StoreArtifacts
{
    std::string json;     ///< results.json bytes
    std::string csv;      ///< results.csv bytes
    std::string journal;  ///< checkpoint.jsonl, canonical order

    bool operator==(const StoreArtifacts &) const = default;
};

inline StoreArtifacts
readArtifacts(const std::string &dir)
{
    StoreArtifacts out;
    out.json = readFile(dir + "/results.json");
    out.csv = readFile(dir + "/results.csv");
    std::istringstream journal(readFile(dir + "/checkpoint.jsonl"));
    std::string header, line;
    std::getline(journal, header);
    std::vector<std::string> lines;
    while (std::getline(journal, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    out.journal = header + "\n";
    for (const auto &entry : lines)
        out.journal += entry + "\n";
    return out;
}

} // namespace perfbench

#endif // NVMEXP_PERFBENCH_FIXTURES_HH
