/**
 * @file
 * JSON configuration front-end: the C++ equivalent of the original
 * release's `python run.py config/<study>.json` interface.
 *
 * A config file names the cells, capacities, optimization targets,
 * traffic patterns, and constraint clauses of a design sweep;
 * loadExperiment turns it into a SweepConfig plus a refine pipeline
 * and runExperiment produces the combined results table (and optional
 * CSV). Unknown top-level keys are rejected, so a typo'd or retired
 * key fails instead of being ignored.
 */

#ifndef NVMEXP_CORE_CONFIG_HH
#define NVMEXP_CORE_CONFIG_HH

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "metrics/constraints.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace nvmexp {

/** A fully resolved experiment specification. */
struct ExperimentConfig
{
    std::string name = "experiment";
    SweepConfig sweep;
    /**
     * Declarative refine pipeline (the paper's "filter and refine"
     * stage), applied in order after the sweep: constraint clauses,
     * then the Pareto front over `paretoMetrics` (when non-empty),
     * then the `topK` best rows under `topMetric` (when set). The
     * JSON "constraints" key is an array of clauses ("metric<=bound"
     * strings or {"metric", "op", "bound"} objects). The CLI's
     * --filter/--pareto/--top flags layer onto the same fields.
     */
    metrics::ConstraintSet constraints;
    bool applyConstraints = false;
    std::vector<std::string> paretoMetrics;
    std::string topMetric;  ///< empty = no top-k stage
    std::size_t topK = 0;
    /** Config had a "reliability"/"ecc" block: the dashboard table
     *  grows ECC/failure-rate columns. Off by default so sweeps
     *  without a reliability axis print exactly as before. */
    bool showReliability = false;
    /** The "campaign" block's shard count; 0 = config doesn't ask for
     *  a distributed campaign. `campaign plan` uses this as the
     *  default when --shards isn't given. */
    std::size_t campaignShards = 0;
    std::string outputCsv;  ///< empty = don't write
};

/**
 * Resolve a cell reference string to a catalog cell:
 *   "SRAM", "<Tech>-Opt", "<Tech>-Pess", "RRAM-Ref", "FeFET-BG",
 * optionally suffixed with "+MLC2" for the 2-bit variant; or the
 * special name "study-set" handled by loadExperiment. fatal() on
 * unknown references.
 */
MemCell resolveCellReference(const std::string &reference);

/** The top-level keys a config may carry. loadExperiment rejects any
 *  other key; nvmexplorer_lint reports against the same list. */
const std::set<std::string> &knownConfigKeys();

/** Build an ExperimentConfig from a parsed JSON document. */
ExperimentConfig loadExperiment(const JsonValue &doc);

/** Convenience: parse + load a config file. */
ExperimentConfig loadExperimentFile(const std::string &path);

/**
 * Run the experiment and collect the standard dashboard columns
 * (cell, traffic, power, latency load, lifetime, viability...).
 * Writes outputCsv when configured.
 */
Table runExperiment(const ExperimentConfig &config);

} // namespace nvmexp

#endif // NVMEXP_CORE_CONFIG_HH
